package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/metrics"
	"segugio/internal/ml"
	"segugio/internal/obs"
)

// staticSource is a GraphSource over one fixed snapshot.
type staticSource struct {
	g       *graph.Graph
	version uint64
}

func (s *staticSource) Snapshot() (*graph.Graph, uint64) { return s.g, s.version }
func (s *staticSource) Day() int                         { return s.g.Day() }
func (s *staticSource) Version() uint64                  { return s.version }

// SnapshotSince reports an exact empty delta when asked about the current
// version and an inexact one otherwise, like the real ingester.
func (s *staticSource) SnapshotSince(since uint64) (*graph.Graph, uint64, graph.Delta) {
	if since == s.version {
		return s.g, s.version, graph.Delta{Exact: true}
	}
	return s.g, s.version, graph.Delta{}
}

// testGraph builds a small labeled graph: 10 blacklisted domains and 20
// whitelisted ones with clearly separated machine populations, plus a few
// unknown domains queried by the infected machines (the targets).
func testGraph(t *testing.T, day int) *graph.Graph {
	t.Helper()
	b, src := testGraphParts(t, day)
	g := b.Build()
	g.ApplyLabels(src)
	return g
}

// testGraphParts returns the populated builder behind testGraph plus the
// label sources, for tests that keep streaming into it.
func testGraphParts(t *testing.T, day int) (*graph.Builder, graph.LabelSources) {
	t.Helper()
	b := graph.NewBuilder("live", day, dnsutil.DefaultSuffixList())
	bl := intel.NewBlacklist()
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("c%d.evil.net", i)
		bl.Add(intel.BlacklistEntry{Domain: name, Family: "fam", FirstListed: 0})
		for m := 0; m < 6; m++ {
			b.AddQuery(fmt.Sprintf("inf%02d", (i+m)%12), name)
		}
		b.AddResolution(name, dnsutil.IPv4(0x0a000000+uint32(i)))
	}
	var whitelisted []string
	for i := 0; i < 20; i++ {
		e2ld := fmt.Sprintf("good%d.com", i)
		whitelisted = append(whitelisted, e2ld)
		name := "www." + e2ld
		for m := 0; m < 8; m++ {
			b.AddQuery(fmt.Sprintf("clean%02d", (i+m)%25), name)
		}
		b.AddResolution(name, dnsutil.IPv4(0x0b000000+uint32(i)))
	}
	// Unknown domains queried mostly by infected machines.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("unk%d.gray.org", i)
		for m := 0; m < 5; m++ {
			b.AddQuery(fmt.Sprintf("inf%02d", (i+m)%12), name)
		}
		b.AddResolution(name, dnsutil.IPv4(0x0c000000+uint32(i)))
	}
	return b, graph.LabelSources{
		Blacklist: bl,
		Whitelist: intel.NewWhitelist(whitelisted),
		AsOf:      day,
	}
}

// testDetector trains a small logistic-regression detector on the test
// graph and saves it to dir, returning the file path.
func testDetector(t *testing.T, g *graph.Graph, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "detector.gob")
	saveTestDetector(t, g, nil, core.DefaultConfig().ActivityWindow, path)
	return path
}

// saveTestDetector trains the test detector with the given activity log
// and F2 window and writes it to path.
func saveTestDetector(t *testing.T, g *graph.Graph, act *activity.Log, window int, path string) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.ActivityWindow = window
	cfg.DisablePruning = true
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := core.Train(cfg, core.TrainInput{Graph: g, Activity: act})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveDetector(f, det); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

type testServer struct {
	*httptest.Server
	srv    *Server
	handle *DetectorHandle
	reg    *metrics.Registry
}

func newTestServer(t *testing.T, mutate func(*Config)) *testServer {
	t.Helper()
	g := testGraph(t, 42)
	path := testDetector(t, g, t.TempDir())
	handle, err := OpenDetector(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := Config{
		Graphs:   &staticSource{g: g, version: 7},
		Detector: handle,
		Registry: reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testServer{Server: ts, srv: s, handle: handle, reg: reg}
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func getJSON(t *testing.T, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestClassifyAllUnknown(t *testing.T) {
	ts := newTestServer(t, nil)
	var resp ClassifyResponse
	code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Day != 42 || resp.GraphVersion != 7 {
		t.Fatalf("day/version = %d/%d, want 42/7", resp.Day, resp.GraphVersion)
	}
	if resp.Classified != 4 || len(resp.Detections) != 4 {
		t.Fatalf("classified %d domains (%d detections), want 4", resp.Classified, len(resp.Detections))
	}
	det, _ := ts.handle.Get()
	if resp.Threshold != det.Threshold() {
		t.Fatalf("threshold = %v, want %v", resp.Threshold, det.Threshold())
	}
	for i, d := range resp.Detections {
		if !strings.HasPrefix(d.Domain, "unk") {
			t.Fatalf("detection %d is %q, want an unknown-labeled domain", i, d.Domain)
		}
		if d.Detected != (d.Score >= resp.Threshold) {
			t.Fatalf("detection %q: Detected=%v inconsistent with score %v", d.Domain, d.Detected, d.Score)
		}
		if i > 0 && resp.Detections[i-1].Score < d.Score {
			t.Fatal("detections are not sorted by descending score")
		}
	}
}

func TestClassifyExplicitDomains(t *testing.T) {
	ts := newTestServer(t, nil)
	var resp ClassifyResponse
	req := ClassifyRequest{Domains: []string{"unk0.gray.org", "Unk1.Gray.ORG", "absent.example.com"}}
	code, raw := postJSON(t, ts.URL+"/v1/classify", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Classified != 2 {
		t.Fatalf("classified = %d, want 2", resp.Classified)
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != "absent.example.com" {
		t.Fatalf("missing = %v, want [absent.example.com]", resp.Missing)
	}
}

func TestClassifyTopCap(t *testing.T) {
	ts := newTestServer(t, nil)
	var resp ClassifyResponse
	code, raw := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Top: 2}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Classified != 4 || len(resp.Detections) != 2 {
		t.Fatalf("classified/returned = %d/%d, want 4/2", resp.Classified, len(resp.Detections))
	}
}

func TestClassifyRejectsBadInput(t *testing.T) {
	ts := newTestServer(t, func(cfg *Config) { cfg.MaxClassifyDomains = 2 })

	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}

	code, _ := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Domains: []string{"a.com", "b.com", "c.com"}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("over limit: status %d, want 400", code)
	}

	code, _ = postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Domains: []string{"..bad.."}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad domain: status %d, want 400", code)
	}
}

// TestClassifyWireFormatGolden locks the classify wire format by exact
// JSON round-trip: the raw body must re-encode byte-identically from the
// documented response structs — no extra fields, no reordering, and no
// "detectors" key at all.
func TestClassifyWireFormatGolden(t *testing.T) {
	t.Run("forest-only", func(t *testing.T) {
		ts := newTestServer(t, nil)
		var resp ClassifyResponse
		code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &resp)
		if code != http.StatusOK {
			t.Fatalf("classify: %d %s", code, raw)
		}
		if strings.Contains(raw, `"detectors"`) {
			t.Fatalf("detectors key present:\n%s", raw)
		}
		golden, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if raw != string(golden)+"\n" {
			t.Fatalf("wire format drifted from ClassifyResponse:\n got: %s\nwant: %s", raw, golden)
		}
	})
}

func TestClassifyWithoutDetector(t *testing.T) {
	ts := newTestServer(t, func(cfg *Config) { cfg.Detector = nil })
	code, raw := postJSON(t, ts.URL+"/v1/classify", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", code, raw)
	}
}

func TestClassifyUnlabeledGraph(t *testing.T) {
	b := graph.NewBuilder("live", 1, dnsutil.DefaultSuffixList())
	b.AddQuery("m1", "a.example.com")
	bare := b.Build()
	ts := newTestServer(t, func(cfg *Config) { cfg.Graphs = &staticSource{g: bare} })
	code, _ := postJSON(t, ts.URL+"/v1/classify", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
}

func TestDomainEvidence(t *testing.T) {
	ts := newTestServer(t, nil)
	var resp DomainResponse
	code, raw := getJSON(t, ts.URL+"/v1/domains/unk1.gray.org", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Domain != "unk1.gray.org" || resp.Label != "unknown" || resp.E2LD != "gray.org" {
		t.Fatalf("domain/label/e2ld = %q/%q/%q", resp.Domain, resp.Label, resp.E2LD)
	}
	if resp.QueryingMachines != 5 {
		t.Fatalf("queryingMachines = %d, want 5", resp.QueryingMachines)
	}
	if resp.InfectedFraction != 1 {
		t.Fatalf("infectedFraction = %v, want 1 (only infected machines query it)", resp.InfectedFraction)
	}
	if len(resp.ResolvedIPs) != 1 || resp.ResolvedIPs[0] != "12.0.0.1" {
		t.Fatalf("resolvedIps = %v", resp.ResolvedIPs)
	}
	if len(resp.Machines) != 5 {
		t.Fatalf("machines = %v, want 5 ids", resp.Machines)
	}
	if resp.Score == nil || resp.Detected == nil {
		t.Fatal("unknown domain must carry a score when a detector is loaded")
	}

	// A labeled domain is not a classification target: evidence without score.
	var labeled DomainResponse
	code, raw = getJSON(t, ts.URL+"/v1/domains/c0.evil.net", &labeled)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if labeled.Label != "malware" || labeled.Score != nil {
		t.Fatalf("label=%q score=%v, want malware label without score", labeled.Label, labeled.Score)
	}

	code, _ = getJSON(t, ts.URL+"/v1/domains/never.seen.example", nil)
	if code != http.StatusNotFound {
		t.Fatalf("absent domain: status %d, want 404", code)
	}
}

// TestLookupAndAuditUseModelWindow serves a detector trained with a 7-day
// F2 window over an activity history in which the unknown domains were
// active for 13 of the last 14 days. The feature vectors an analyst sees —
// in GET /v1/domains/{name} and in the audit record — must be the ones the
// model scored (7-day look-back), and must follow a reload to a model with
// a different window.
func TestLookupAndAuditUseModelWindow(t *testing.T) {
	const day, name = 42, "unk1.gray.org"
	g := testGraph(t, day)
	act := activity.NewLog()
	for i := 0; i < 4; i++ {
		for d := day - 12; d <= day; d++ {
			act.MarkDomain(d, fmt.Sprintf("unk%d.gray.org", i))
			act.MarkE2LD(d, "gray.org")
		}
	}
	path := filepath.Join(t.TempDir(), "detector.gob")
	saveTestDetector(t, g, act, 7, path)
	handle, err := OpenDetector(path)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := obs.OpenAudit(obs.AuditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, func(cfg *Config) {
		cfg.Graphs = &staticSource{g: g, version: 7}
		cfg.Detector, cfg.Activity, cfg.Audit = handle, act, audit
	})

	// scored is the vector the model scored a domain on: pruning is off in
	// the test detector, so it is the live graph's vector at that window.
	scored := func(domain string, window int) []float64 {
		t.Helper()
		ex, err := features.NewExtractor(g, act, nil, window)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := g.DomainIndex(domain)
		return ex.Vector(d)
	}
	want := scored(name, 7)
	if slices.Equal(want, scored(name, 14)) {
		t.Fatal("fixture cannot tell a 7-day window from a 14-day one")
	}
	lookupActiveDays := func() int {
		t.Helper()
		var resp DomainResponse
		if code, raw := getJSON(t, ts.URL+"/v1/domains/"+name, &resp); code != http.StatusOK {
			t.Fatalf("lookup: %d %s", code, raw)
		}
		return resp.ActiveDays
	}
	if got := lookupActiveDays(); got != int(want[features.FDomainActiveDays]) {
		t.Fatalf("lookup activeDays = %d, the model scored %v", got, want[features.FDomainActiveDays])
	}

	if code, raw := postJSON(t, ts.URL+"/v1/classify", nil, nil); code != http.StatusOK {
		t.Fatalf("classify: %d %s", code, raw)
	}
	var audited AuditResponse
	if code, raw := getJSON(t, ts.URL+"/v1/audit", &audited); code != http.StatusOK || len(audited.Records) == 0 {
		t.Fatalf("audit: %d %s, want audited detections", code, raw)
	}
	for _, rec := range audited.Records {
		vec := scored(rec.Domain, 7)
		for i, fname := range features.Names() {
			if rec.Features[fname] != vec[i] {
				t.Fatalf("audit record for %s: %s = %v, the model scored %v", rec.Domain, fname, rec.Features[fname], vec[i])
			}
		}
	}

	// Reload to a 14-day model: the lookup follows it.
	saveTestDetector(t, g, act, 14, path)
	if code, raw := postJSON(t, ts.URL+"/v1/reload", nil, nil); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, raw)
	}
	if got, want := lookupActiveDays(), scored(name, 14)[features.FDomainActiveDays]; got != int(want) {
		t.Fatalf("after reload activeDays = %d, the 14-day model scored %v", got, want)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, nil)
	var resp HealthResponse
	code, raw := getJSON(t, ts.URL+"/healthz", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Status != "ok" || resp.Day != 42 || resp.GraphVersion != 7 || !resp.DetectorLoaded {
		t.Fatalf("healthz = %+v", resp)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/classify", nil, nil)
	postJSON(t, ts.URL+"/v1/classify", nil, nil)
	getJSON(t, ts.URL+"/healthz", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`segugiod_http_requests_total{handler="classify"} 2`,
		`segugiod_http_requests_total{handler="healthz"} 1`,
		`segugiod_classify_seconds_count 2`,
		"segugiod_detector_age_seconds",
		"segugiod_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}

func TestReload(t *testing.T) {
	ts := newTestServer(t, nil)
	var resp ReloadResponse
	code, raw := postJSON(t, ts.URL+"/v1/reload", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if !resp.Reloaded || resp.Path != ts.handle.Path() {
		t.Fatalf("reload = %+v", resp)
	}

	// Corrupt the file: reload must fail and the old detector keep serving.
	detBefore, _ := ts.handle.Get()
	if err := os.WriteFile(ts.handle.Path(), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, raw = postJSON(t, ts.URL+"/v1/reload", nil, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: status %d (%s), want 422", code, raw)
	}
	detAfter, _ := ts.handle.Get()
	if detBefore != detAfter {
		t.Fatal("failed reload must keep the previous detector")
	}
	var classify ClassifyResponse
	if code, _ := postJSON(t, ts.URL+"/v1/classify", nil, &classify); code != http.StatusOK {
		t.Fatalf("classify after failed reload: status %d", code)
	}

	var body bytes.Buffer
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(&body, resp2.Body)
	resp2.Body.Close()
	for _, want := range []string{
		"segugiod_detector_reloads_total 1",
		"segugiod_detector_reload_failures_total 1",
	} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body.String())
		}
	}
}

func TestReloadForSignal(t *testing.T) {
	ts := newTestServer(t, nil)
	if err := ts.srv.ReloadForSignal(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ts.handle.Path(), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ts.srv.ReloadForSignal(); err == nil {
		t.Fatal("reload of corrupt file must fail")
	}
}

func TestOpenDetectorRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDetector(filepath.Join(dir, "missing.gob")); err == nil {
		t.Fatal("missing file must fail")
	}
	bad := filepath.Join(dir, "bad.gob")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDetector(bad); err == nil {
		t.Fatal("corrupt file must fail")
	}
}

// TestConcurrentRequests exercises classify/evidence/reload/metrics in
// parallel; meaningful under -race.
func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				switch i % 3 {
				case 0:
					postJSON(t, ts.URL+"/v1/classify", nil, nil)
				case 1:
					getJSON(t, ts.URL+"/v1/domains/unk0.gray.org", nil)
				case 2:
					postJSON(t, ts.URL+"/v1/reload", nil, nil)
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			http.Get(ts.URL + "/metrics")
		}
		close(done)
	}()
	wg.Wait()
	<-done
}

// panickingSource poisons every graph read, driving the handler
// panic-recovery middleware.
type panickingSource struct{}

func (panickingSource) Snapshot() (*graph.Graph, uint64) { panic("snapshot exploded") }
func (panickingSource) Day() int                         { return 1 }
func (panickingSource) Version() uint64                  { panic("version exploded") }
func (panickingSource) SnapshotSince(uint64) (*graph.Graph, uint64, graph.Delta) {
	panic("snapshot exploded")
}

func TestHandlerPanicRecovery(t *testing.T) {
	reg := metrics.NewRegistry()
	panics := reg.NewCounter("panics", "", "")
	s := New(Config{
		Graphs:   panickingSource{},
		Registry: reg,
		Panics:   panics,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz calls Version, which panics: the request must come back as
	// a 500, not a dropped connection or a dead server.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("panicking handler must still answer: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal server error") {
		t.Fatalf("body = %s", body)
	}
	if panics.Value() != 1 {
		t.Fatalf("panics counter = %d, want 1", panics.Value())
	}

	// The server survives and keeps serving subsequent requests.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics after panic: status %d", resp.StatusCode)
	}
}
