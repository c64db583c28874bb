package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segugio/internal/detector"
	"segugio/internal/obs"
)

// lbpTestServer boots the harness with both the forest and the LBP
// plugin enabled.
func lbpTestServer(t *testing.T, mutate func(*Config)) *testServer {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.Detectors = []string{"forest", "lbp"}
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func TestClassifyCarriesDetectorScores(t *testing.T) {
	ts := lbpTestServer(t, nil)
	var resp ClassifyResponse
	code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("classify: %d %s", code, raw)
	}
	if len(resp.Detections) != 4 {
		t.Fatalf("detections = %d, want 4", len(resp.Detections))
	}
	for _, d := range resp.Detections {
		if len(d.Detectors) != 3 {
			t.Fatalf("%s: detectors = %v, want forest+lbp+fused", d.Domain, d.Detectors)
		}
		forest, fok := d.Detectors["forest"]
		lbp, lok := d.Detectors["lbp"]
		fused, uok := d.Detectors[detector.FusedName]
		if !fok || !lok || !uok {
			t.Fatalf("%s: detectors = %v, want forest+lbp+fused", d.Domain, d.Detectors)
		}
		if forest != d.Score {
			t.Fatalf("%s: forest score %v != primary score %v", d.Domain, forest, d.Score)
		}
		if lbp < 0 || lbp > 1 {
			t.Fatalf("%s: lbp belief %v out of [0,1]", d.Domain, lbp)
		}
		if fused != max(forest, lbp) {
			t.Fatalf("%s: fused = %v, want max(%v, %v)", d.Domain, fused, forest, lbp)
		}
	}

	// The per-domain evidence endpoint carries the same map for a domain
	// whose score is served from the classify-all cache.
	var dom DomainResponse
	code, raw = getJSON(t, ts.URL+"/v1/domains/unk0.gray.org", &dom)
	if code != http.StatusOK {
		t.Fatalf("domain: %d %s", code, raw)
	}
	if dom.Score == nil || len(dom.Detectors) != 3 {
		t.Fatalf("domain detectors = %v (score=%v), want forest+lbp+fused", dom.Detectors, dom.Score)
	}
	if dom.Detectors["forest"] != *dom.Score {
		t.Fatalf("domain forest score %v != score %v", dom.Detectors["forest"], *dom.Score)
	}
}

// TestClassifyWireFormatGolden locks the classify wire format by exact
// JSON round-trip: the raw body must re-encode byte-identically from the
// documented response structs — no extra fields, no reordering, and in
// forest-only mode no "detectors" key at all (the pre-plugin format).
func TestClassifyWireFormatGolden(t *testing.T) {
	check := func(t *testing.T, ts *testServer, wantDetectors bool) {
		t.Helper()
		var resp ClassifyResponse
		code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &resp)
		if code != http.StatusOK {
			t.Fatalf("classify: %d %s", code, raw)
		}
		if got := strings.Contains(raw, `"detectors"`); got != wantDetectors {
			t.Fatalf("detectors key present = %v, want %v:\n%s", got, wantDetectors, raw)
		}
		golden, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if raw != string(golden)+"\n" {
			t.Fatalf("wire format drifted from ClassifyResponse:\n got: %s\nwant: %s", raw, golden)
		}
	}
	t.Run("forest-only", func(t *testing.T) { check(t, newTestServer(t, nil), false) })
	t.Run("forest+lbp", func(t *testing.T) { check(t, lbpTestServer(t, nil), true) })
}

func TestAuditDualVerdicts(t *testing.T) {
	audit, err := obs.OpenAudit(obs.AuditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := lbpTestServer(t, func(cfg *Config) { cfg.Audit = audit })

	var classify ClassifyResponse
	if code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &classify); code != http.StatusOK {
		t.Fatalf("classify: %d %s", code, raw)
	}
	if classify.Detected == 0 {
		t.Fatal("test graph must produce detections")
	}

	var resp AuditResponse
	if code, raw := getJSON(t, ts.URL+"/v1/audit", &resp); code != http.StatusOK {
		t.Fatalf("audit: %d %s", code, raw)
	}
	if resp.Total != classify.Detected {
		t.Fatalf("audit total = %d, want %d", resp.Total, classify.Detected)
	}
	// Acceptance: every new detection carries both the forest and the LBP
	// verdict, plus the fused ensemble.
	lbpDetected := 0
	for _, rec := range resp.Records {
		forest, fok := rec.Detectors["forest"]
		lbp, lok := rec.Detectors["lbp"]
		fused, uok := rec.Detectors[detector.FusedName]
		if len(rec.Detectors) != 3 || !fok || !lok || !uok {
			t.Fatalf("%s: verdicts = %v, want forest+lbp+fused", rec.Domain, rec.Detectors)
		}
		if forest.Score != rec.Score || !forest.Detected {
			t.Fatalf("%s: forest verdict %+v inconsistent with record score %v", rec.Domain, forest, rec.Score)
		}
		if fused.Score != max(forest.Score, lbp.Score) {
			t.Fatalf("%s: fused score %v, want max(%v, %v)", rec.Domain, fused.Score, forest.Score, lbp.Score)
		}
		if fused.Detected != (forest.Detected || lbp.Detected) {
			t.Fatalf("%s: fused detected %v, want OR of %v/%v", rec.Domain, fused.Detected, forest.Detected, lbp.Detected)
		}
		if lbp.Detected {
			lbpDetected++
		}
	}

	// A pre-plugin record (no per-detector map) counts as a forest
	// detection and nothing else.
	if err := audit.Append(obs.AuditRecord{Domain: "legacy.example.net", Reason: obs.ReasonNewDetection}); err != nil {
		t.Fatal(err)
	}

	// ?detector= filters on the plugin's own verdict.
	var byForest, byLBP, byFused AuditResponse
	getJSON(t, ts.URL+"/v1/audit?detector=forest", &byForest)
	getJSON(t, ts.URL+"/v1/audit?detector=lbp", &byLBP)
	getJSON(t, ts.URL+"/v1/audit?detector=fused", &byFused)
	if len(byForest.Records) != classify.Detected+1 {
		t.Fatalf("forest filter = %d records, want %d (incl. legacy)", len(byForest.Records), classify.Detected+1)
	}
	if len(byLBP.Records) != lbpDetected {
		t.Fatalf("lbp filter = %d records, want %d", len(byLBP.Records), lbpDetected)
	}
	if len(byFused.Records) != classify.Detected {
		t.Fatalf("fused filter = %d records, want %d", len(byFused.Records), classify.Detected)
	}

	// Filters compose with ?domain=, and unknown plugin names are 400.
	domain := resp.Records[0].Domain
	var one AuditResponse
	if code, raw := getJSON(t, ts.URL+"/v1/audit?detector=forest&domain="+domain, &one); code != http.StatusOK || len(one.Records) != 1 {
		t.Fatalf("combined filter: %d, %d records (%s)", code, len(one.Records), raw)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/audit?detector=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown detector: %d, want 400", code)
	}
}

func TestAuditDetectorFilterRespectsEnabledSet(t *testing.T) {
	audit, err := obs.OpenAudit(obs.AuditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Forest-only server: "lbp" is a known plugin but not enabled here.
	ts := newTestServer(t, func(cfg *Config) { cfg.Audit = audit })
	if code, _ := getJSON(t, ts.URL+"/v1/audit?detector=lbp", nil); code != http.StatusBadRequest {
		t.Fatalf("disabled detector filter: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/audit?detector=forest", nil); code != http.StatusOK {
		t.Fatalf("forest filter on forest-only server: %d, want 200", code)
	}
}

func TestTuningReloadRebuildsAuxPlugins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuning.json")
	if err := os.WriteFile(path, []byte(`{"lbp":{"threshold":0.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := lbpTestServer(t, func(cfg *Config) { cfg.TuningPath = path })

	auxPlugin := func() detector.Detector {
		ts.srv.passMu.Lock()
		defer ts.srv.passMu.Unlock()
		if len(ts.srv.auxPlugins) != 1 {
			t.Fatalf("aux plugins = %d, want 1", len(ts.srv.auxPlugins))
		}
		return ts.srv.auxPlugins[0]
	}

	// Startup builds from cfg.Tuning; the file only applies on reload
	// (the daemon loads the file itself and passes the result in).
	before := auxPlugin()
	if got := before.Threshold(); got != detector.DefaultLBPThreshold {
		t.Fatalf("startup lbp threshold = %v, want default %v", got, detector.DefaultLBPThreshold)
	}

	var resp ReloadResponse
	if code, raw := postJSON(t, ts.URL+"/v1/reload", nil, &resp); code != http.StatusOK || !resp.Reloaded {
		t.Fatalf("reload: %d %s", code, raw)
	}
	after := auxPlugin()
	if after == before {
		t.Fatal("reload must rebuild the aux plugins")
	}
	if got := after.Threshold(); got != 0.5 {
		t.Fatalf("reloaded lbp threshold = %v, want 0.5 from the tuning file", got)
	}

	// The rebuilt plugin starts cold and self-escalates to a full pass on
	// the next classify; responses still carry its scores.
	var classify ClassifyResponse
	if code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &classify); code != http.StatusOK {
		t.Fatalf("classify after reload: %d %s", code, raw)
	}
	for _, d := range classify.Detections {
		if _, ok := d.Detectors["lbp"]; !ok {
			t.Fatalf("%s: no lbp score after tuning reload: %v", d.Domain, d.Detectors)
		}
	}

	// A bad tuning file fails the reload (422), keeps the previous
	// plugins, and counts as a reload failure.
	if err := os.WriteFile(path, []byte(`{"nope":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, raw := postJSON(t, ts.URL+"/v1/reload", nil, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad tuning reload: %d (%s), want 422", code, raw)
	}
	if auxPlugin() != after {
		t.Fatal("failed tuning reload must keep the previous plugins")
	}
	if ts.srv.reloadFails.Value() != 1 {
		t.Fatalf("reload failures = %d, want 1", ts.srv.reloadFails.Value())
	}
	if err := ts.srv.ReloadForSignal(); err == nil {
		t.Fatal("SIGHUP path must also fail on a bad tuning file")
	}
}
