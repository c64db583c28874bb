package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/intel"
	"segugio/internal/logio"
	"segugio/internal/ml"
	"segugio/internal/obs"
)

const e2eDay = 42

// genEvents builds the synthetic day stream: blacklisted C&C domains
// queried by infected machines, whitelisted sites queried by clean
// machines, and a handful of unknown domains queried by the infected
// population (the detection targets). Repetitions push the count past the
// 1000-event floor the daemon e2e asserts.
func genEvents() []logio.Event {
	var evs []logio.Event
	for rep := 0; rep < 5; rep++ {
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("c%d.evil.net", i)
			for m := 0; m < 6; m++ {
				evs = append(evs, logio.Event{
					Kind: logio.EventQuery, Day: e2eDay,
					Machine: fmt.Sprintf("inf%02d", (i+m)%12), Domain: name,
				})
			}
			evs = append(evs, logio.Event{
				Kind: logio.EventResolution, Day: e2eDay, Domain: name,
				IPs: []dnsutil.IPv4{dnsutil.IPv4(0x0a000000 + uint32(i))},
			})
		}
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("www.good%d.com", i)
			for m := 0; m < 8; m++ {
				evs = append(evs, logio.Event{
					Kind: logio.EventQuery, Day: e2eDay,
					Machine: fmt.Sprintf("clean%02d", (i+m)%25), Domain: name,
				})
			}
			evs = append(evs, logio.Event{
				Kind: logio.EventResolution, Day: e2eDay, Domain: name,
				IPs: []dnsutil.IPv4{dnsutil.IPv4(0x0b000000 + uint32(i))},
			})
		}
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("unk%d.gray.org", i)
			for m := 0; m < 5; m++ {
				evs = append(evs, logio.Event{
					Kind: logio.EventQuery, Day: e2eDay,
					Machine: fmt.Sprintf("inf%02d", (i+m)%12), Domain: name,
				})
			}
			evs = append(evs, logio.Event{
				Kind: logio.EventResolution, Day: e2eDay, Domain: name,
				IPs: []dnsutil.IPv4{dnsutil.IPv4(0x0c000000 + uint32(i))},
			})
		}
	}
	return evs
}

// writeIntel drops blacklist.tsv and whitelist.txt for -data.
func writeIntel(t *testing.T, dir string) (*intel.Blacklist, *intel.Whitelist) {
	t.Helper()
	bl := intel.NewBlacklist()
	for i := 0; i < 10; i++ {
		bl.Add(intel.BlacklistEntry{
			Domain: fmt.Sprintf("c%d.evil.net", i), Family: "fam", FirstListed: 0,
		})
	}
	var e2lds []string
	for i := 0; i < 20; i++ {
		e2lds = append(e2lds, fmt.Sprintf("good%d.com", i))
	}
	wl := intel.NewWhitelist(e2lds)

	mustWrite := func(name string, fn func(w *bufio.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		if err := fn(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("blacklist.tsv", func(w *bufio.Writer) error { return logio.WriteBlacklist(w, bl) })
	mustWrite("whitelist.txt", func(w *bufio.Writer) error { return logio.WriteWhitelist(w, wl) })
	return bl, wl
}

// trainModel trains a detector on the batch graph of the same event
// distribution the e2e streams, and saves it for -model.
func trainModel(t *testing.T, dir string, bl *intel.Blacklist, wl *intel.Whitelist) string {
	t.Helper()
	b := graph.NewBuilder("train", e2eDay, dnsutil.DefaultSuffixList())
	for _, e := range genEvents() {
		switch e.Kind {
		case logio.EventQuery:
			b.AddQuery(e.Machine, e.Domain)
		case logio.EventResolution:
			for _, ip := range e.IPs {
				b.AddResolution(e.Domain, ip)
			}
		}
	}
	g := b.Build()
	g.ApplyLabels(graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: e2eDay})

	cfg := core.DefaultConfig()
	cfg.DisablePruning = true
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := core.Train(cfg, core.TrainInput{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "detector.gob")
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
	return path
}

// metricValue scrapes one series from /metrics; name may carry a label
// set (`foo{bar="x"}`) and must match the exposed series exactly.
func metricValue(t *testing.T, base, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in %q: %v", name, line, err)
		}
		return v, true
	}
	return 0, false
}

// logBuffer is a goroutine-safe log sink for in-process daemons: handler
// and source goroutines keep logging while the test reads.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	dir := t.TempDir()
	bl, wl := writeIntel(t, dir)
	model := trainModel(t, dir, bl, wl)

	logBuf := &logBuffer{}
	logger, err := obs.NewLogger(logBuf, obs.FormatJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:   "127.0.0.1:0",
		events:   "tcp://127.0.0.1:0",
		model:    model,
		dataDir:  dir,
		network:  "e2e",
		startDay: e2eDay,
		workers:  4,
		queue:    8192,
		keepDays: 30,
	}, logger)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()

	base := "http://" + d.httpLn.Addr().String()

	// Stream the synthetic day over a real TCP connection.
	evs := genEvents()
	if len(evs) < 1000 {
		t.Fatalf("generated only %d events, e2e needs at least 1000", len(evs))
	}
	conn, err := net.Dial("tcp", d.eventsLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for _, e := range evs {
		if err := logio.WriteEvent(w, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// The ingest-events counter must converge on exactly the streamed
	// count (the queue is deep enough that nothing is dropped).
	deadline := time.Now().Add(15 * time.Second)
	for {
		if v, ok := metricValue(t, base, "segugiod_ingest_events_total"); ok && v == float64(len(evs)) {
			break
		}
		if time.Now().After(deadline) {
			v, _ := metricValue(t, base, "segugiod_ingest_events_total")
			dropped, _ := metricValue(t, base, "segugiod_ingest_dropped_total")
			t.Fatalf("ingested %v of %d events (%v dropped) before deadline", v, len(evs), dropped)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v, _ := metricValue(t, base, "segugiod_ingest_dropped_total"); v != 0 {
		t.Fatalf("dropped %v events, want 0", v)
	}
	if v, ok := metricValue(t, base, "segugiod_graph_domains"); !ok || v != 34 {
		t.Fatalf("graph domains gauge = %v, want 34", v)
	}

	// Classify the live graph.
	var classify struct {
		Day        int      `json:"day"`
		Threshold  float64  `json:"threshold"`
		Classified int      `json:"classified"`
		Missing    []string `json:"missing"`
		Detections []struct {
			Domain   string  `json:"domain"`
			Score    float64 `json:"score"`
			Detected bool    `json:"detected"`
		} `json:"detections"`
	}
	resp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &classify); err != nil {
		t.Fatalf("classify: bad JSON %q: %v", body, err)
	}
	if classify.Day != e2eDay {
		t.Fatalf("classify day = %d, want %d", classify.Day, e2eDay)
	}
	if classify.Classified != 4 || len(classify.Detections) != 4 {
		t.Fatalf("classified %d (%d detections), want the 4 unknown domains: %s",
			classify.Classified, len(classify.Detections), body)
	}
	for _, det := range classify.Detections {
		if !strings.HasPrefix(det.Domain, "unk") {
			t.Fatalf("unexpected classification target %q", det.Domain)
		}
		if det.Detected != (det.Score >= classify.Threshold) {
			t.Fatalf("detection %+v inconsistent with threshold %v", det, classify.Threshold)
		}
	}

	// A second classify on the same snapshot reuses the memoized prune
	// pipeline: the prune cache hit counter must move.
	resp, err = http.Post(base+"/v1/classify", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second classify: status %d", resp.StatusCode)
	}
	if v, ok := metricValue(t, base, "segugiod_classify_prune_cache_hits_total"); !ok || v < 1 {
		t.Fatalf("prune cache hits = %v (present=%v), want >= 1", v, ok)
	}

	// Per-domain evidence from the live graph.
	resp, err = http.Get(base + "/v1/domains/unk0.gray.org")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("domains: status %d: %s", resp.StatusCode, body)
	}
	var evidence struct {
		Label            string  `json:"label"`
		InfectedFraction float64 `json:"infectedFraction"`
		QueryingMachines int     `json:"queryingMachines"`
	}
	if err := json.Unmarshal(body, &evidence); err != nil {
		t.Fatal(err)
	}
	if evidence.Label != "unknown" || evidence.QueryingMachines != 5 || evidence.InfectedFraction != 1 {
		t.Fatalf("evidence = %s", body)
	}

	// Every pipeline stage the in-memory daemon exercises must have fed
	// its latency histogram.
	for _, stage := range []string{"parse", "graph_apply", "snapshot", "classify", "feature_extract"} {
		series := fmt.Sprintf(`segugiod_stage_seconds_count{stage="%s"}`, stage)
		if v, ok := metricValue(t, base, series); !ok || v == 0 {
			t.Fatalf("stage histogram %s = %v (present=%v), want nonzero", series, v, ok)
		}
	}

	// The flight recorder covers the whole pipeline: across the dumped
	// traces there are parse, graph_apply, snapshot, and classify spans.
	resp, err = http.Get(base + "/debug/obs/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var dump obs.Dump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("traces: bad JSON %q: %v", body, err)
	}
	spanNames := map[string]bool{}
	for _, trc := range append(dump.Recent, dump.Slowest...) {
		for _, s := range trc.Spans {
			spanNames[s.Name] = true
		}
	}
	for _, want := range []string{obs.StageParse, obs.StageGraphApply, obs.StageSnapshot, obs.StageClassify} {
		if !spanNames[want] {
			t.Fatalf("flight recorder lacks %s spans (have %v)", want, spanNames)
		}
	}

	// The audit trail holds one record per detection the classify-all
	// produced, with the full feature vector.
	detected := 0
	for _, det := range classify.Detections {
		if det.Detected {
			detected++
		}
	}
	resp, err = http.Get(base + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var audit struct {
		Total   int               `json:"total"`
		Records []obs.AuditRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &audit); err != nil {
		t.Fatalf("audit: bad JSON %q: %v", body, err)
	}
	if audit.Total != detected {
		t.Fatalf("audit total = %d, want %d detections: %s", audit.Total, detected, body)
	}
	if detected > 0 && len(audit.Records[0].Features) != 11 {
		t.Fatalf("audit record lacks the 11-feature vector: %+v", audit.Records[0])
	}

	// Health and hot-reload.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz: status %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Post(base+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
	}

	// Graceful shutdown on context cancel.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not shut down cleanly; log:\n%s", logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "shut down cleanly") {
		t.Fatalf("missing clean-shutdown log line:\n%s", logBuf.String())
	}

	// -log-format=json: every line is a JSON object carrying a component,
	// and the HTTP request records carry request ids.
	sawRequestID := false
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("log line is not JSON: %v (%s)", err, sc.Text())
		}
		if comp, _ := obj["component"].(string); comp == "" {
			t.Fatalf("log line lacks component: %s", sc.Text())
		}
		if rid, _ := obj["request_id"].(string); obj["msg"] == "request" && rid != "" {
			sawRequestID = true
		}
	}
	if !sawRequestID {
		t.Fatalf("no request record with request_id in:\n%s", logBuf.String())
	}
}

// TestDaemonStdinSource covers the "-" event source: events arrive on
// stdin and the API serves them without a TCP listener.
func TestDaemonStdinSource(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	var stream bytes.Buffer
	evs := genEvents()[:300]
	for _, e := range evs {
		if err := logio.WriteEvent(&stream, e); err != nil {
			t.Fatal(err)
		}
	}
	logger, err := obs.NewLogger(io.Discard, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:   "127.0.0.1:0",
		events:   "-",
		network:  "stdin",
		startDay: e2eDay,
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, &stream) }()

	base := "http://" + d.httpLn.Addr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := metricValue(t, base, "segugiod_ingest_events_total"); ok && v == float64(len(evs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stdin events not ingested before deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// No detector configured: classify must answer 503, not crash.
	resp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify without detector: status %d, want 503", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down cleanly")
	}
}

func TestParseFlagsRejectsExtraArgs(t *testing.T) {
	if _, err := parseFlags([]string{"extra"}); err == nil {
		t.Fatal("positional arguments must be rejected")
	}
	opts, err := parseFlags([]string{"-listen", "127.0.0.1:1234", "-events", "tcp://127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.listen != "127.0.0.1:1234" || opts.events != "tcp://127.0.0.1:9" {
		t.Fatalf("opts = %+v", opts)
	}
	// Retired knobs fail parsing instead of being silently ignored.
	for _, args := range [][]string{
		{"-graph-shards", "2"}, {"-wal-binary"}, {"-window", "7"},
		{"-lbp-threshold", "0.8"}, {"-shed-policy", "sample"}, {"-shed-policy", "drop"},
		{"-detectors", "forest"}, {"-detector-config", "x.json"},
		{"-slow-trace", "1s"}, {"-trace-ring", "8"}, {"-audit-ring", "8"},
		{"-stats-retention", "1h"}, {"-mem-watermark-mb", "64"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Fatalf("parseFlags(%v) succeeded, want an error", args)
		}
	}
}

// TestMemorySignalAtGoMemoryLimit: with no Go memory limit set the memory
// check does not run; with one set, memory in use below it asserts
// nothing and memory at or above it asserts the overloaded memory signal.
// The process's limit is restored on cleanup.
func TestMemorySignalAtGoMemoryLimit(t *testing.T) {
	old := debug.SetMemoryLimit(-1)
	t.Cleanup(func() { debug.SetMemoryLimit(old) })
	d := &daemon{health: health.New(health.Config{})}

	debug.SetMemoryLimit(math.MaxInt64)
	if d.checkMemory() {
		t.Fatal("the memory check ran with no memory limit set")
	}
	debug.SetMemoryLimit(1 << 50)
	if !d.checkMemory() || d.health.State() != health.Healthy {
		t.Fatalf("far below the limit: state %v, want a check and no signal", d.health.State())
	}
	debug.SetMemoryLimit(1 << 20) // below what the test process already holds
	ran := d.checkMemory()
	debug.SetMemoryLimit(old)
	if !ran || !d.health.Overloaded() {
		t.Fatalf("at the limit: ran %v, state %v; want the memory signal overloaded", ran, d.health.State())
	}
	for _, sig := range d.health.Signals() {
		if sig.Name == "memory" && strings.Contains(sig.Reason, "GOMEMLIMIT") {
			return
		}
	}
	t.Fatalf("signals %+v carry no memory signal naming GOMEMLIMIT", d.health.Signals())
}
