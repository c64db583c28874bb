package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/obs"
)

// TestMetricsScrapeLints boots a full daemon (durable state, model,
// tracer, audit trail), drives every subsystem once, and then validates
// the complete /metrics exposition with the internal/metrics linter:
// HELP/TYPE pairing, parseable values, and monotone histogram buckets
// ending in le="+Inf". This is the scrape-compatibility gate for every
// metric the daemon exports.
func TestMetricsScrapeLints(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	dir := t.TempDir()
	bl, wl := writeIntel(t, dir)
	model := trainModel(t, dir, bl, wl)
	sloPath := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(sloPath, []byte(`{"objectives": [{
		"name": "graph_freshness",
		"type": "freshness",
		"metric": "segugiod_watermark_lag_seconds",
		"labels": "{stage=\"graph_apply\",source=\"stream\"}",
		"target": 3600
	}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	for _, e := range genEvents() {
		if err := logio.WriteEvent(&stream, e); err != nil {
			t.Fatal(err)
		}
	}
	logger, err := obs.NewLogger(io.Discard, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:        "127.0.0.1:0",
		events:        "-",
		model:         model,
		dataDir:       dir,
		network:       "scrape",
		startDay:      e2eDay,
		workers:       2,
		queue:         16384,
		keepDays:      30,
		stateDir:      t.TempDir(),
		ckptInterval:  50 * time.Millisecond,
		walSyncEvery:  1,
		statsInterval: 50 * time.Millisecond,
		sloConfig:     sloPath,
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, &stream) }()

	base := "http://" + d.httpLn.Addr().String()
	total := float64(len(genEvents()))
	deadline := time.Now().Add(15 * time.Second)
	for {
		if v, ok := metricValue(t, base, "segugiod_ingest_events_total"); ok && v == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("events not ingested before deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	pollUntil := func(name string, cond func(v float64) bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			if v, ok := metricValue(t, base, name); ok && cond(v) {
				return
			}
			if time.Now().After(deadline) {
				v, _ := metricValue(t, base, name)
				t.Fatalf("metric %s stuck at %v", name, v)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Make the durable and classify metric families carry real samples.
	pollUntil("segugiod_checkpoints_total", func(v float64) bool { return v >= 1 })
	for _, path := range []string{"/v1/classify", "/healthz", "/v1/audit", "/debug/obs/traces"} {
		var resp *http.Response
		var err error
		if strings.HasSuffix(path, "classify") {
			resp, err = http.Post(base+path, "application/json", strings.NewReader("{}"))
		} else {
			resp, err = http.Get(base + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if errs := metrics.Lint(bytes.NewReader(raw)); len(errs) != 0 {
		t.Fatalf("exposition violations: %v\n%s", errs, raw)
	}
	// Sanity: the document is not trivially small and covers the new
	// families.
	for _, want := range []string{
		"segugiod_stage_seconds_bucket",
		"segugiod_http_request_seconds_bucket",
		"segugiod_build_info",
		"segugiod_uptime_seconds",
		"segugiod_audit_records_total",
		`segugiod_stage_seconds_bucket{stage="classify"`,
		"segugiod_health_state",
		`segugiod_ingest_shed_total{reason="drop-oldest"}`,
		"segugiod_pass_deadline_exceeded_total",
		`segugiod_http_rejected_total{code="429"}`,
		`segugiod_http_rejected_total{code="503"}`,
		`segugiod_lookups_total{source="pass"}`,
		`segugiod_lookups_total{source="live"}`,
		"segugiod_classify_prune_cache_hits_total",
		"segugiod_classify_prune_cache_misses_total",
		`segugiod_watermark_lag_seconds{stage="graph_apply",source="stream"}`,
		`segugiod_watermark_lag_seconds{stage="score_cache",source="all"}`,
		`segugiod_watermark_lag_seconds{stage="shard_apply",source="shard-0"}`,
		`segugiod_watermark_lag_seconds{stage="shard_apply",source="shard-1"}`,
		`segugiod_watermark_day{stage="graph_apply",source="stream"}`,
		`segugiod_shard_events_total{shard="0"}`,
		`segugiod_shard_events_total{shard="1"}`,
		`segugiod_shard_apply_seconds_bucket{shard="0"`,
		`segugiod_shard_apply_seconds_bucket{shard="1"`,
		`segugiod_shard_queue_depth{shard="0"}`,
		`segugiod_shard_queue_depth{shard="1"}`,
		`segugiod_slo_burn_rate{objective="graph_freshness",window="fast"}`,
		`segugiod_slo_burn_rate{objective="graph_freshness",window="slow"}`,
		`segugiod_slo_firing{objective="graph_freshness"}`,
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("scrape lacks %s:\n%s", want, raw)
		}
	}
	// A pass is timed once, by its classify span: no per-plugin families.
	// It scores its snapshot whole: no delta-cache or dirty-set families.
	for _, gone := range []string{"segugiod_lbp_", "segugiod_detector_pass_", "segugiod_classify_cache_", "segugiod_dirty_domains"} {
		if bytes.Contains(raw, []byte(gone)) {
			t.Fatalf("scrape still carries %s families:\n%s", gone, raw)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
