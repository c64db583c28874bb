package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/ingest"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/ml"
	"segugio/internal/obs"
	"segugio/internal/server"
	"segugio/internal/tracker"
	"segugio/internal/wal"
)

// The traced run is separate from the timed runs, which carry no spans.
// It links internal/* into the bench binary and replays one day of the
// replay-sat stream, in slices of sliceEvents events, through each
// layer's public entry points, recording a span around every call. Spans
// live in memory until the replay ends. Spans inside the daemon are a
// later issue.

// sliceEvents is the slice size the issue fixes.
const sliceEvents = 100000

// span is one timed call into a layer. Spans of one slice share its
// slice id; the day-end calls carry slice -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Name   string `json:"name"`
	Slice  int    `json:"slice"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. All calls come from the one goroutine
// that drives the replay, so the open spans form a stack. A recorder
// that is off does nothing: replaying with it gives the cost of tracing.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func (r *recorder) begin(name string, slice int) {
	if !r.on {
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Slice: slice, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
}

func (r *recorder) end() {
	if !r.on {
		return
	}
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = int64(time.Since(r.t0))
}

// selfTimes returns, per span, its duration minus the part of it its
// children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// gatedReader hands a stream to a long-lived reader one slice at a
// time: Read blocks at each slice boundary until release is called, so
// one decoder (or one Consume loop) keeps its symbol table across
// slices, as a real connection does.
type gatedReader struct {
	gate chan []byte
	cur  []byte
}

func newGatedReader() *gatedReader { return &gatedReader{gate: make(chan []byte)} }

func (g *gatedReader) Read(p []byte) (int, error) {
	if len(g.cur) == 0 {
		next, ok := <-g.gate
		if !ok {
			return 0, io.EOF
		}
		g.cur = next
	}
	n := copy(p, g.cur)
	g.cur = g.cur[n:]
	return n, nil
}

func (g *gatedReader) release(b []byte) { g.gate <- b }
func (g *gatedReader) close()           { close(g.gate) }

// traceResult is what one traced replay produced.
type traceResult struct {
	Seed    int64              `json:"seed"`
	Slices  int                `json:"slices"`
	Events  int                `json:"events"`
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// overheadSlices is how many slices the no-op-recorder replay repeats to
// price the tracing itself.
const overheadSlices = 4

// traceRun replays up to maxSlices slices (0: the whole day) and
// returns the traced per-layer metrics.
func (e *env) traceRun(ctx context.Context, seed int64, maxSlices int) (*traceResult, error) {
	runDir, err := os.MkdirTemp(e.outDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	n, err := newNetwork(e.sc, seed)
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(runDir, "model.bin")
	det, err := n.train(modelPath)
	if err != nil {
		return nil, err
	}
	w, _ := workloadByName("replay-sat")
	slice := int(sliceEvents * max(e.sc.rateScale, 0.05))
	limit := 0
	if maxSlices > 0 {
		limit = maxSlices * slice
	}
	ds, err := n.encodeDay(day0, int(nominalSat*w.probeGap.Seconds()*e.sc.rateScale), nil, limit)
	if err != nil {
		return nil, err
	}
	// Slices: runs of whole chunks of about slice events each.
	var slices [][2]int // chunk index range [from, to)
	from, count := 0, 0
	for i, c := range ds.chunks {
		count += c.events
		if count >= slice || i == len(ds.chunks)-1 {
			slices = append(slices, [2]int{from, i + 1})
			from, count = i+1, 0
		}
	}

	tp := &tracePipe{n: n, det: det, modelPath: modelPath, ds: ds, slices: slices}
	// The switched-off replay goes first, each on a collected heap, so
	// that neither inherits the other's garbage.
	k := min(overheadSlices, len(slices))
	runtime.GC()
	plain, err := tp.replay(ctx, &recorder{}, k, filepath.Join(runDir, "plain"))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rec := &recorder{on: true, t0: time.Now()}
	traced, err := tp.replay(ctx, rec, len(slices), filepath.Join(runDir, "traced"))
	if err != nil {
		return nil, err
	}
	var tracedK, plainK time.Duration
	for i := 0; i < k; i++ {
		tracedK += traced.sliceWall[i]
		plainK += plain.sliceWall[i]
	}
	res := &traceResult{Seed: seed, Slices: len(slices), Events: ds.events, Spans: rec.spans}
	res.Metrics = traced.metrics(rec.spans, ds.events)
	res.Metrics["bench.trace_overhead_ratio"] = float64(tracedK) / float64(plainK)
	return res, nil
}

// tracePipe is the fixed input of a replay.
type tracePipe struct {
	n         *network
	det       *core.Detector
	modelPath string
	ds        *dayStream
	slices    [][2]int
}

// replayStats are the counts a replay takes at the boundaries where it
// records spans.
type replayStats struct {
	sliceWall     []time.Duration
	queries       int
	edges         int
	walBytes      int64
	consumeAllocs uint64
	passAllocs    []float64
	unknowns      int
	rows          int
	classifyBytes int // size of one classify-all reply
}

func (t *tracePipe) sliceBytes(i int) []byte {
	r := t.slices[i]
	return t.ds.buf[t.ds.chunks[r[0]].off:t.ds.chunks[r[1]-1].end]
}

func (t *tracePipe) sliceCount(i int) int {
	n := 0
	for _, c := range t.ds.chunks[t.slices[i][0]:t.slices[i][1]] {
		n += c.events
	}
	return n
}

// replay drives the first k slices through every layer, then the
// day-end calls, under rec.
func (t *tracePipe) replay(ctx context.Context, rec *recorder, k int, dir string) (*replayStats, error) {
	n := t.n
	st := &replayStats{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	labels := func(g *graph.Graph) {
		g.ApplyLabels(graph.LabelSources{Blacklist: n.blacklist, Whitelist: n.whitelist, AsOf: g.Day()})
	}

	// logio: one decoder over the whole stream, fed slice by slice.
	decIn := newGatedReader()
	dec := logio.NewEventDecoder(decIn)
	type decoded struct {
		evs []logio.Event
		err error
	}
	decOut := make(chan decoded)
	want := make(chan int)
	go func() {
		defer close(decOut)
		var evs []logio.Event
		target := <-want
		err := dec.Run(func(ev *logio.Event) error {
			c := *ev
			c.IPs = append([]dnsutil.IPv4(nil), ev.IPs...)
			evs = append(evs, c)
			if len(evs) == target {
				decOut <- decoded{evs: evs}
				evs = nil
				target = <-want
			}
			return nil
		})
		dec.Release()
		decOut <- decoded{err: err}
	}()
	defer func() {
		close(want)
		decIn.close()
		for range decOut {
		}
	}()

	// graph, wal: bare layers.
	b := graph.NewBuilder("isp", t.ds.day, n.suffixes)
	wlog, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		return nil, err
	}
	defer wlog.Close()

	// ingest + server: the daemon's own wiring, in-process.
	act := activity.NewLog()
	n.preloadActivity(act)
	reg := metrics.NewRegistry()
	applied := reg.NewCounter("bench_trace_applied_total", "Events applied by the traced ingester.", "")
	icfg := ingest.Config{
		Network: "isp", StartDay: t.ds.day, Suffixes: n.suffixes, Activity: act,
		PrepareSnapshot: labels, ShedPolicy: ingest.ShedBlock,
		Metrics: &ingest.Metrics{EventsIngested: applied},
	}
	dcfg := ingest.DurableConfig{Dir: filepath.Join(dir, "state")}
	rec.begin("day", -1)
	rec.begin("ingest.open_durable.fresh", -1)
	ing, _, err := ingest.OpenDurable(icfg, dcfg)
	rec.end()
	rec.end()
	if err != nil {
		return nil, err
	}
	shut := false
	defer func() {
		if !shut {
			ing.Shutdown()
		}
	}()
	ingIn := newGatedReader()
	consumed := make(chan error, 1)
	go func() { consumed <- ing.Consume(ingIn) }()
	handle, err := server.OpenDetector(t.modelPath)
	if err != nil {
		return nil, err
	}
	audit, err := obs.OpenAudit(obs.AuditConfig{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Graphs: ing, Detector: handle, Activity: act, Abuse: n.abuse,
		Registry: reg, Tracker: tracker.New(), Audit: audit,
	})
	sess := t.det.NewSession()

	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var sinceV uint64
	sent := 0
	var payload, line bytes.Buffer
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		raw, cnt := t.sliceBytes(i), t.sliceCount(i)
		t0 := time.Now()
		rec.begin("slice", i)

		rec.begin("logio.decode", i)
		want <- cnt
		decIn.release(raw)
		d := <-decOut
		rec.end()
		if d.err != nil || len(d.evs) != cnt {
			return nil, fmt.Errorf("trace: decoder delivered %d of %d events: %v", len(d.evs), cnt, d.err)
		}

		rec.begin("graph.apply", i)
		for _, ev := range d.evs {
			if ev.Kind == logio.EventQuery {
				b.AddQuery(ev.Machine, ev.Domain)
				st.queries++
			} else {
				for _, ip := range ev.IPs {
					b.AddResolution(ev.Domain, ip)
				}
			}
		}
		rec.end()
		rec.begin("graph.snapshot", i)
		b.Snapshot()
		rec.end()

		// The WAL layer is handed what ingest hands it: text records
		// of one apply batch each. Rendering them is ingest's cost,
		// not the log's, so it stays outside the span.
		var records [][]byte
		for off := 0; off < len(d.evs); off += traceBatch {
			payload.Reset()
			for _, ev := range d.evs[off:min(off+traceBatch, len(d.evs))] {
				line.Reset()
				logio.WriteEvent(&line, ev)
				payload.Write(line.Bytes())
			}
			records = append(records, bytes.Clone(payload.Bytes()))
			st.walBytes += int64(payload.Len())
		}
		rec.begin("wal.append", i)
		for _, r := range records {
			if _, err := wlog.Append(r); err != nil {
				return nil, err
			}
		}
		rec.end()
		rec.begin("wal.sync", i)
		err := wlog.Sync()
		rec.end()
		if err != nil {
			return nil, err
		}

		m0 := mallocs()
		rec.begin("ingest.consume", i)
		sent += cnt
		ingIn.release(raw)
		for applied.Value() < int64(sent) {
			select {
			case err := <-consumed:
				return nil, fmt.Errorf("trace: Consume returned early: %v", err)
			default:
			}
			time.Sleep(50 * time.Microsecond)
		}
		rec.end()
		st.consumeAllocs += mallocs() - m0

		rec.begin("ingest.snapshot_since", i)
		g, v, delta := ing.SnapshotSince(sinceV)
		rec.end()
		sinceV = v

		in := core.ClassifyInput{Graph: g, Activity: act, Abuse: n.abuse}
		if delta.Exact {
			in.Domains = delta.Domains
			if in.Domains == nil {
				in.Domains = []string{}
			}
		}
		rec.begin("core.classify_delta", i)
		_, _, err = sess.ClassifyDelta(in)
		rec.end()
		if err != nil {
			return nil, err
		}

		m0 = mallocs()
		rec.begin("server.tracker_pass", i)
		_, err = srv.RunTrackerPass(ctx)
		rec.end()
		st.passAllocs = append(st.passAllocs, float64(mallocs()-m0))
		if err != nil {
			return nil, err
		}

		rec.end() // slice
		st.sliceWall = append(st.sliceWall, time.Since(t0))
	}

	// Day end.
	rec.begin("day-end", -1)
	defer rec.end()
	rec.begin("graph.build", -1)
	g := b.Build()
	rec.end()
	st.edges = g.NumEdges()
	labels(g)
	rec.begin("graph.prune", -1)
	pruned, _, err := graph.Prune(g, graph.DefaultPruneConfig())
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin("wal.replay", -1)
	err = wlog.Replay(wal.Pos{}, func(wal.Pos, []byte) error { return nil })
	rec.end()
	if err != nil {
		return nil, err
	}

	ex, err := features.NewExtractor(pruned, act, n.abuse, 14)
	if err != nil {
		return nil, err
	}
	unknown := features.UnknownDomains(ex)
	st.unknowns = len(unknown)
	rec.begin("features.vectors_for", -1)
	X, ok := features.VectorsFor(ex, unknown)
	rec.end()
	rows := X[:0]
	for i, r := range X {
		if ok[i] {
			rows = append(rows, r)
		}
	}
	st.rows = len(rows)
	// A forest of the deployment shape, fitted on this graph's known
	// domains: the detector does not give its model away.
	train := features.TrainingSet(ex, nil)
	benign, malware := train.Counts()
	model := forest(benign, malware)
	if err := model.Fit(train.X, train.Y); err != nil {
		return nil, err
	}
	rec.begin("ml.score_batch", -1)
	ml.ScoreAll(model, rows)
	rec.end()
	rec.begin("core.classify_full", -1)
	_, _, err = t.det.NewSession().Classify(core.ClassifyInput{Graph: g, Activity: act, Abuse: n.abuse})
	rec.end()
	if err != nil {
		return nil, err
	}

	// Serve path, warm: the pass above left the score cache current.
	h := srv.Handler()
	do := func(name, method, target, body string) (int, error) {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		w := httptest.NewRecorder()
		rec.begin(name, -1)
		h.ServeHTTP(w, req)
		rec.end()
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("trace: %s %s answered %d: %s", method, target, w.Code, w.Body.String())
		}
		return w.Body.Len(), nil
	}
	for i := 0; i < traceClassifyAlls; i++ {
		n, err := do("server.classify_all_warm", http.MethodPost, "/v1/classify", "{}")
		if err != nil {
			return nil, err
		}
		st.classifyBytes = n
	}
	for i := 0; i < traceDomainGets && i < len(t.ds.pool.unknown); i++ {
		if _, err := do("server.domain_get", http.MethodGet, "/v1/domains/"+t.ds.pool.unknown[i], ""); err != nil {
			return nil, err
		}
	}

	// Durability: checkpoint, clean stop, re-open over the real state.
	rec.begin("ingest.checkpoint", -1)
	err = ing.Checkpoint()
	rec.end()
	if err != nil {
		return nil, err
	}
	ingIn.close()
	if err := <-consumed; err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("trace: Consume: %w", err)
	}
	ing.Shutdown()
	shut = true
	rec.begin("ingest.open_durable", -1)
	ing2, _, err := ingest.OpenDurable(icfg, dcfg)
	rec.end()
	if err != nil {
		return nil, err
	}
	ing2.Shutdown()
	return st, nil
}

const (
	// traceBatch is the apply batch ingest cuts WAL records at.
	traceBatch        = 512
	traceClassifyAlls = 10
	traceDomainGets   = 100
)

// metrics folds the spans and boundary counts into the traced per-layer
// metrics.
func (st *replayStats) metrics(spans []span, events int) map[string]float64 {
	total := map[string]float64{} // ns per span name
	each := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		total[s.Name] += d
		each[s.Name] = append(each[s.Name], d)
	}
	ev := float64(events)
	msP50 := func(name string) float64 { return median(each[name]) / 1e6 }
	per := func(name string, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total[name] / n
	}
	m := map[string]float64{
		"logio.decode_ns_per_event":       per("logio.decode", ev),
		"graph.apply_ns_per_event":        per("graph.apply", ev),
		"graph.dup_ratio":                 1 - float64(st.edges)/float64(max(st.queries, 1)),
		"graph.snapshot_ms_p50":           msP50("graph.snapshot"),
		"graph.build_ms":                  total["graph.build"] / 1e6,
		"graph.prune_ms":                  total["graph.prune"] / 1e6,
		"wal.append_ns_per_event":         per("wal.append", ev),
		"wal.sync_ms_p50":                 msP50("wal.sync"),
		"wal.replay_ns_per_event":         per("wal.replay", ev),
		"ingest.consume_ns_per_event":     per("ingest.consume", ev),
		"ingest.allocs_per_event":         float64(st.consumeAllocs) / ev,
		"ingest.snapshot_since_ms_p50":    msP50("ingest.snapshot_since"),
		"ingest.checkpoint_ms":            total["ingest.checkpoint"] / 1e6,
		"ingest.open_durable_ms":          total["ingest.open_durable"] / 1e6,
		"features.vector_us_per_domain":   per("features.vectors_for", float64(st.unknowns)) / 1e3,
		"ml.score_us_per_row":             per("ml.score_batch", float64(st.rows)) / 1e3,
		"core.classify_full_ms":           total["core.classify_full"] / 1e6,
		"core.classify_delta_ms_p50":      msP50("core.classify_delta"),
		"server.pass_ms_p50":              msP50("server.tracker_pass"),
		"server.pass_allocs":              median(st.passAllocs),
		"server.classify_all_warm_us":     median(each["server.classify_all_warm"]) / 1e3,
		"server.domain_get_us":            median(each["server.domain_get"]) / 1e3,
		"server.response_bytes":           float64(st.classifyBytes),
		"bench.trace_spans":               float64(len(spans)),
		"bench.trace_events":              ev,
		"bench.trace_wal_bytes_per_event": float64(st.walBytes) / ev,
	}
	// What ingest adds on top of the layers it drives: ring, dispatch,
	// locks, WAL rendering, bookkeeping.
	m["ingest.overhead_ns_per_event"] = m["ingest.consume_ns_per_event"] -
		m["logio.decode_ns_per_event"] - m["graph.apply_ns_per_event"] - m["wal.append_ns_per_event"]
	return m
}
