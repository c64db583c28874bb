package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func tinyNetwork(t *testing.T, seed int64) *network {
	t.Helper()
	n, err := newNetwork(scales["tiny"], seed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// The stream is a pure function of the seed: byte-identical for the same
// seed, different for another.
func TestStreamDeterministic(t *testing.T) {
	sha := func(seed int64) string {
		n := tinyNetwork(t, seed)
		var days []*dayStream
		for d := 0; d < 2; d++ {
			ds, err := n.encodeDay(day0+d, 4000, []int{n.sc.warm}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(ds.probes) == 0 {
				t.Fatalf("day %d carries no probes", day0+d)
			}
			days = append(days, ds)
		}
		return streamSHA(days)
	}
	a, b, c := sha(7), sha(7), sha(8)
	if a != b {
		t.Errorf("same seed, different streams: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same stream %s", a)
	}
}

// A day's chunks tile its buffer, count its events, and restart the
// symbol table exactly where asked.
func TestChunksTileTheDay(t *testing.T) {
	n := tinyNetwork(t, 3)
	ds, err := n.encodeDay(day0, 4000, []int{n.sc.warm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	off, events, fresh := 0, 0, 0
	for i, c := range ds.chunks {
		if c.off != off || c.end <= c.off {
			t.Fatalf("chunk %d covers [%d,%d), want it to start at %d", i, c.off, c.end, off)
		}
		off = c.end
		events += c.events
		if c.dayEvents != events {
			t.Fatalf("chunk %d: dayEvents %d, want %d", i, c.dayEvents, events)
		}
		if c.fresh {
			fresh++
		}
	}
	if off != len(ds.buf) || events != ds.events {
		t.Errorf("chunks cover %d bytes and %d events, day has %d and %d", off, events, len(ds.buf), ds.events)
	}
	if fresh != 2 || !ds.chunks[0].fresh {
		t.Errorf("%d self-contained segments, want 2 (warm-up and the rest)", fresh)
	}
	if got := len(ds.segments(len(ds.chunks) - 1)); got != 2 {
		t.Errorf("segments() = %d ranges, want 2", got)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(vals, 95); math.Abs(got-9.55) > 1e-9 {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread(vals); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is a number")
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {5, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestScrapeAccounting(t *testing.T) {
	sc, err := parseScrape([]byte(`# HELP x y
# TYPE x counter
segugiod_ingest_events_total 90
segugiod_ingest_stale_total 4
segugiod_ingest_dropped_total 3
segugiod_ingest_shed_total{reason="drop-oldest"} 2
segugiod_ingest_shed_total{reason="sample"} 1
segugiod_shard_events_total{shard="0"} 60
segugiod_shard_events_total{shard="1"} 30
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.accounting().total(); got != 100 {
		t.Errorf("accounted %d events, want 100", got)
	}
	if got := sc.sum("segugiod_shard_events_total"); got != 90 {
		t.Errorf("sum over shards = %v, want 90", got)
	}
	if got := sc.diff(scrape{"segugiod_ingest_events_total": 40}).get("segugiod_ingest_events_total"); got != 50 {
		t.Errorf("diff = %v, want 50", got)
	}
	if _, err := parseScrape([]byte("no_value\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

// The oracle flags every planted probe, agrees with itself, and notices
// a reply that differs.
func TestOracleSelfTest(t *testing.T) {
	n := tinyNetwork(t, 5)
	det, err := n.train(filepath.Join(t.TempDir(), "model.bin"))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := n.encodeDay(day0, 4000, []int{n.sc.warm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	days := []*dayStream{ds}
	o, err := n.oracle(det, days, 0, len(ds.chunks)-1)
	if err != nil {
		t.Fatal(err)
	}
	var probes []string
	for _, p := range ds.probes {
		probes = append(probes, p.Domain)
	}
	reply := &classifyReply{Day: day0}
	for name, score := range o.scores {
		reply.Detections = append(reply.Detections, classifyRow{Domain: name, Score: score, Detected: score >= o.threshold})
	}
	d := o.compare(reply, probes)
	if len(d.missedProbes) != 0 {
		t.Fatalf("the oracle does not flag %d of %d probes, e.g. %s", len(d.missedProbes), len(probes), d.missedProbes[0])
	}
	if len(d.onlyDaemon)+len(d.onlyOracle)+len(d.verdictFlips)+d.drifted != 0 || d.maxScoreDelta != 0 {
		t.Fatalf("the oracle disagrees with itself: %+v", d)
	}

	// A reply that lost a domain, gained one, drifted one and flipped one.
	bad := *reply
	bad.Detections = append([]classifyRow(nil), reply.Detections...)
	lost := bad.Detections[0].Domain
	bad.Detections[0] = classifyRow{Domain: "not-in-the-stream.example", Score: 0.1}
	bad.Detections[1].Score += 0.25
	bad.Detections[2].Detected = !bad.Detections[2].Detected
	d = o.compare(&bad, nil)
	if len(d.onlyOracle) != 1 || d.onlyOracle[0] != lost || len(d.onlyDaemon) != 1 {
		t.Errorf("set differences not seen: %+v", d)
	}
	if d.drifted != 1 || math.Abs(d.maxScoreDelta-0.25) > 1e-12 {
		t.Errorf("drift not seen: %d drifted, max %v", d.drifted, d.maxScoreDelta)
	}
	if len(d.verdictFlips) == 0 {
		t.Errorf("verdict flip not seen: %+v", d)
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, outDir: t.TempDir(), sc: scales["tiny"], log: testWriter{t}}
	if e.bin, err = buildDaemon(context.Background(), root, e.outDir); err != nil {
		t.Fatal(err)
	}
	return e
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// Every workload and the traced run, end to end, on the tiny network.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs segugiod; skipped under -short")
	}
	e := testEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	for _, w := range workloads {
		res, err := e.run(ctx, w, 1, 1.5)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: gates failed: %v", w.name, res.Gates)
		}
		// A tiny day lasts a third of a second at saturation, less than
		// one classify tick: closed loop, probes die with their day. The
		// paced workloads must not lose one.
		if res.Attempted == 0 || (res.Failed != 0 && w.rate > 0) {
			t.Errorf("%s: %d attempted, %d failed", w.name, res.Attempted, res.Failed)
		}
		for _, def := range endToEnd {
			if v := res.Metrics[def.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", w.name, def.Name, v)
			}
		}
		if _, ok := res.Layers["ingest.stall_probes"]; !ok {
			t.Errorf("%s: ingest.stall_probes not reported", w.name)
		}
	}

	tr, err := e.traceRun(ctx, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.Metrics["bench.trace_overhead_ratio"]; !(r > 0) {
		t.Errorf("bench.trace_overhead_ratio = %v", r)
	}
	checkSpans(t, tr.Spans)

	// Between them, a run and the traced run report every per-layer name.
	res, err := e.run(ctx, workloads[0], 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range perLayer {
		_, scraped := res.Layers[def.Name]
		_, traced := tr.Metrics[def.Name]
		if !scraped && !traced {
			t.Errorf("per-layer metric %s is reported by neither a run nor the traced run", def.Name)
		}
	}
}

// checkSpans holds the trace to its own arithmetic: spans nest, children
// lie inside their parent, and per slice the children's time plus the
// parent's self time is the parent's span (within 5 %).
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("the traced run recorded no spans")
	}
	self := selfTimes(spans)
	children := make([]int64, len(spans))
	slices := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %d (%s) leaves its parent %s", s.ID, s.Name, p.Name)
			}
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Name != "slice" {
			continue
		}
		slices++
		dur := s.End - s.Start
		if self[s.ID] < 0 {
			t.Errorf("slice %d: children outlast the slice by %dns", s.Slice, -self[s.ID])
		}
		if got := children[s.ID] + self[s.ID]; math.Abs(float64(got-dur)) > 0.05*float64(dur) {
			t.Errorf("slice %d: children %d + self %d != span %d", s.Slice, children[s.ID], self[s.ID], dur)
		}
	}
	if slices == 0 {
		t.Error("no slice spans")
	}
}

// Without the day fence an in-order stream loses events at a rotation:
// a worker that reaches the next day rotates the epoch while other
// shards still hold the old day's tail, which is then discarded as
// stale (finding #2). With the fence the same stream loses none.
func TestFenceOffLosesEventsAsStale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs segugiod; skipped under -short")
	}
	e := testEnv(t)
	n := tinyNetwork(t, 9)
	dirs := daemonDirs{state: filepath.Join(e.outDir, "state"), data: filepath.Join(e.outDir, "data"), model: filepath.Join(e.outDir, "model.bin")}
	if err := n.writeDataDir(dirs.data); err != nil {
		t.Fatal(err)
	}
	if _, err := n.train(dirs.model); err != nil {
		t.Fatal(err)
	}
	var days []*dayStream
	for d := 0; d < 5; d++ {
		ds, err := n.encodeDay(day0+d, 0, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, ds)
	}
	stale := func(fence bool) float64 {
		os.RemoveAll(dirs.state)
		dm, err := startDaemon(e.bin, dirs, "-shed-policy", "block")
		if err != nil {
			t.Fatal(err)
		}
		defer dm.kill()
		if _, err := dm.waitReady(time.Minute); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		l := newLife(dm, days)
		done := make(chan error, 1)
		pctx, stop := context.WithCancel(ctx)
		go func() { done <- l.poll(pctx) }()
		snd := &sender{l: l, days: days, fence: fence}
		if err := snd.send(ctx, sendOpts{}); err != nil {
			t.Fatal(err)
		}
		snd.close()
		if err := l.waitAccounted(ctx); err != nil {
			t.Fatal(err)
		}
		stop()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		sc, err := l.scrapeDirect()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sc.accounting().total(), l.sent.Load(); got != want {
			t.Fatalf("fence %v: sent %d, accounted %d", fence, want, got)
		}
		// Unfenced, days overtake each other and a worker can jump several
		// days in one rotation; only the fenced count is fixed.
		if r := sc.get("segugiod_ingest_rotations_total"); fence && r != float64(len(days)-1) {
			t.Fatalf("%v rotations, want %d", r, len(days)-1)
		}
		return sc.accounting().stale
	}
	if got := stale(true); got != 0 {
		t.Errorf("with the fence, %v events were discarded as stale", got)
	}
	// The loss is a race; give it a few rotations' worth of chances.
	lost := 0.0
	for try := 0; try < 4 && lost == 0; try++ {
		lost = stale(false)
	}
	if lost == 0 {
		t.Errorf("without the fence no event went stale over %d rotations: finding #2 no longer reproduces", 4*(len(days)-1))
	}
	t.Logf("fence off: %v events of an in-order stream discarded as stale", lost)
}

func TestCompare(t *testing.T) {
	mk := func(nproc int, lat []float64) string {
		rep := report{
			Host: host{NProc: nproc, Commit: "test"}, Scale: "isp-50k", Seconds: 12, Repeats: len(lat),
			Workloads: map[string]*workloadReport{"live-paced": {Metrics: map[string]summary{}}},
		}
		for _, def := range endToEnd {
			rep.Workloads["live-paced"].Metrics[def.Name] = summarize([]float64{100, 101, 102})
		}
		rep.Workloads["live-paced"].Metrics["detect_lag_p50_ms"] = summarize(lat)
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(2, []float64{100, 101, 102})
	var out bytes.Buffer
	if err := compare(&out, base, mk(8, []float64{100, 101, 102})); err == nil || !strings.Contains(err.Error(), "CPUs") {
		t.Errorf("hosts with different nproc compared: %v", err)
	}
	verdict := func(lat []float64) string {
		var out bytes.Buffer
		if err := compare(&out, base, mk(2, lat)); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "detect_lag_p50_ms") {
				f := strings.Fields(line)
				return f[len(f)-1]
			}
		}
		t.Fatalf("no detect_lag_p50_ms row in:\n%s", out.String())
		return ""
	}
	if got := verdict([]float64{130, 131, 132}); got != "REGRESSED" {
		t.Errorf("30%% worse: %s", got)
	}
	if got := verdict([]float64{60, 100, 140}); got != "unresolved" {
		t.Errorf("spread beyond the bound: %s", got)
	}
	if got := verdict([]float64{80, 81, 82}); got != "better" {
		t.Errorf("20%% better: %s", got)
	}
	if got := verdict([]float64{100, 101, 103}); got != "bound" { // "within bound"
		t.Errorf("unchanged: %s", got)
	}
}

// BENCHMARK.json is written by hand; the code is what runs. They must
// say the same thing.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("BENCH_WRITE_JSON") != "" {
		// go test ./bench -run BenchmarkJSON with BENCH_WRITE_JSON=1
		// rewrites the file from the code.
		if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), benchmarkJSON(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Command, " ") != "go run ./bench" || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default window is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, code %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// benchmarkJSON renders BENCHMARK.json from the code's definitions.
func benchmarkJSON(t *testing.T) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
