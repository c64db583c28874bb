package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/ml"
	"segugio/internal/obs"
	"segugio/internal/tracker"
)

// deltaSource is a GraphSource whose SnapshotSince answers like the real
// ingester: exact empty delta at the current version, the declared dirty
// set one step back, inexact otherwise.
type deltaSource struct {
	mu      sync.Mutex
	g       *graph.Graph
	version uint64
	prev    uint64
	dirty   []string
	exact   bool
}

func (s *deltaSource) Snapshot() (*graph.Graph, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g, s.version
}

func (s *deltaSource) Day() int {
	g, _ := s.Snapshot()
	return g.Day()
}

func (s *deltaSource) Version() uint64 {
	_, v := s.Snapshot()
	return v
}

func (s *deltaSource) SnapshotSince(since uint64) (*graph.Graph, uint64, graph.Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case since == s.version:
		return s.g, s.version, graph.Delta{Exact: true}
	case s.exact && since == s.prev:
		return s.g, s.version, graph.Delta{Exact: true, Domains: s.dirty}
	default:
		return s.g, s.version, graph.Delta{}
	}
}

// advance publishes a new snapshot whose delta against the previous
// version is the given dirty set.
func (s *deltaSource) advance(g *graph.Graph, dirty []string, exact bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prev = s.version
	s.version++
	s.g = g
	s.dirty = dirty
	s.exact = exact
}

// TestClassifyAllDeltaCache is the acceptance check for the delta-scored
// classify path: a classify-all after k dirty domains performs exactly k
// feature extractions, observed through the cache hit/miss counters.
func TestClassifyAllDeltaCache(t *testing.T) {
	b, src := testGraphParts(t, 42)
	g1 := b.Snapshot()
	g1.ApplyLabels(src)
	gs := &deltaSource{g: g1, version: 7}
	ts := newTestServer(t, func(cfg *Config) { cfg.Graphs = gs })

	classify := func() ClassifyResponse { t.Helper(); return classifyAllOK(t, ts) }
	counters := func() (hits, misses int64) {
		return ts.srv.cacheHits.Value(), ts.srv.cacheMisses.Value()
	}

	// Cold cache: every one of the 4 unknown targets is a miss.
	resp := classify()
	if resp.Classified != 4 {
		t.Fatalf("classified = %d, want 4", resp.Classified)
	}
	if hits, misses := counters(); hits != 0 || misses != 4 {
		t.Fatalf("cold pass: hits/misses = %d/%d, want 0/4", hits, misses)
	}
	for _, d := range resp.Detections {
		if d.ScoreVersion != 7 {
			t.Fatalf("%s: scoreVersion = %d, want 7", d.Domain, d.ScoreVersion)
		}
	}

	// Same version again: all 4 served from cache.
	classify()
	if hits, misses := counters(); hits != 4 || misses != 4 {
		t.Fatalf("warm pass: hits/misses = %d/%d, want 4/4", hits, misses)
	}

	// One dirty domain: a new resolved IP on unk0 leaves every degree (and
	// so the prune signature) unchanged, and the snapshot's own dirty set
	// is exactly that domain. Exactly one re-extraction, three hits.
	b.AddResolution("unk0.gray.org", dnsutil.IPv4(0x0cff0000))
	g2 := b.Snapshot()
	g2.ApplyLabels(src)
	dirty, exact := g2.DirtyDomainNames()
	if !exact || len(dirty) != 1 || dirty[0] != "unk0.gray.org" {
		t.Fatalf("dirty = %v (exact=%v), want exactly [unk0.gray.org]", dirty, exact)
	}
	gs.advance(g2, dirty, true)

	resp = classify()
	if resp.Classified != 4 || resp.GraphVersion != 8 {
		t.Fatalf("delta pass: classified/version = %d/%d, want 4/8", resp.Classified, resp.GraphVersion)
	}
	if hits, misses := counters(); hits != 7 || misses != 5 {
		t.Fatalf("delta pass: hits/misses = %d/%d, want 7/5", hits, misses)
	}
	for _, d := range resp.Detections {
		want := uint64(7)
		if d.Domain == "unk0.gray.org" {
			want = 8
		}
		if d.ScoreVersion != want {
			t.Fatalf("%s: scoreVersion = %d, want %d", d.Domain, d.ScoreVersion, want)
		}
	}

	// An inexact delta (rotation, ring overflow) flushes the whole cache.
	gs.advance(g2, nil, false)
	resp = classify()
	if hits, misses := counters(); hits != 7 || misses != 9 {
		t.Fatalf("inexact pass: hits/misses = %d/%d, want 7/9", hits, misses)
	}
	for _, d := range resp.Detections {
		if d.ScoreVersion != 9 {
			t.Fatalf("%s after flush: scoreVersion = %d, want 9", d.Domain, d.ScoreVersion)
		}
	}
}

// pruneGraphParts is testGraphParts with every blacklisted domain on its
// own e2LD, so the detector can run with the full R1-R4 prune pipeline
// (on the shared-e2LD fixture, R4 would drop the whole malware class).
func pruneGraphParts(day int) (*graph.Builder, graph.LabelSources) {
	b := graph.NewBuilder("live", day, dnsutil.DefaultSuffixList())
	bl := intel.NewBlacklist()
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("c2.evil%d.net", i)
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
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("unk.gray%d.org", i)
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

// newPruneServer serves gs with a detector trained on g with the full
// R1-R4 prune pipeline (the default test detector disables pruning).
func newPruneServer(t *testing.T, g *graph.Graph, gs GraphSource, mutate func(*Config)) *testServer {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := core.Train(cfg, core.TrainInput{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "detector.gob")
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
	handle, err := OpenDetector(path)
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, func(cfg *Config) {
		cfg.Graphs = gs
		cfg.Detector = handle
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// classifyAllOK posts a classify-all and requires a 200.
func classifyAllOK(t *testing.T, ts *testServer) ClassifyResponse {
	t.Helper()
	var resp ClassifyResponse
	code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	return resp
}

// TestClassifyAllPruneMemo is the server-side acceptance check for the
// memoized prune pipeline: with pruning enabled, delta classify-all
// passes after the first perform zero full-graph prune/prober/signature
// scans, and the prune cache counters expose the reuse.
func TestClassifyAllPruneMemo(t *testing.T) {
	b, src := pruneGraphParts(42)
	g1 := b.Snapshot()
	g1.ApplyLabels(src)
	gs := &deltaSource{g: g1, version: 1}
	ts := newPruneServer(t, g1, gs, nil)
	classify := func() ClassifyResponse { t.Helper(); return classifyAllOK(t, ts) }

	// Cold pass: the session computes the prune pipeline (a miss).
	resp := classify()
	if got := len(resp.Detections); got == 0 {
		t.Fatal("pruned classify-all produced no detections")
	}
	if hits, misses := ts.srv.pruneHits.Value(), ts.srv.pruneMisses.Value(); hits != 0 || misses != 1 {
		t.Fatalf("cold pass: prune hits/misses = %d/%d, want 0/1", hits, misses)
	}

	// Delta passes: touch one unknown target per pass (a new resolved IP
	// keeps every degree unchanged, so the frozen plan stays fresh). No
	// full-graph scan of any kind may happen after the first pass.
	for pass := 0; pass < 3; pass++ {
		b.AddResolution("unk.gray0.org", dnsutil.IPv4(0x0cff0000+uint32(pass)))
		g2 := b.Snapshot()
		g2.ApplyLabels(src)
		dirty, exact := g2.DirtyDomainNames()
		if !exact || len(dirty) != 1 || dirty[0] != "unk.gray0.org" {
			t.Fatalf("pass %d: dirty = %v (exact=%v)", pass, dirty, exact)
		}
		gs.advance(g2, dirty, true)

		scans := graph.FullGraphScans()
		got := classify()
		if after := graph.FullGraphScans(); after != scans {
			t.Fatalf("pass %d: delta classify-all ran %d full-graph scans, want 0", pass, after-scans)
		}
		if len(got.Detections) != len(resp.Detections) {
			t.Fatalf("pass %d: detections %d, want %d", pass, len(got.Detections), len(resp.Detections))
		}
	}
	if hits := ts.srv.pruneHits.Value(); hits < 3 {
		t.Fatalf("prune cache hits = %d, want >= 3", hits)
	}
	if misses := ts.srv.pruneMisses.Value(); misses != 1 {
		t.Fatalf("prune cache misses = %d, want 1", misses)
	}
}

// pruneStream is the pruneGraphParts fixture behind a deltaSource: step
// applies a mutation and publishes the next labeled snapshot with its
// exact dirty set.
type pruneStream struct {
	b   *graph.Builder
	src graph.LabelSources
	gs  *deltaSource
}

func newPruneStream() (*pruneStream, *graph.Graph) {
	b, src := pruneGraphParts(42)
	g := b.Snapshot()
	g.ApplyLabels(src)
	return &pruneStream{b: b, src: src, gs: &deltaSource{g: g, version: 1}}, g
}

func (ps *pruneStream) step(t *testing.T, mutate func(b *graph.Builder)) {
	t.Helper()
	mutate(ps.b)
	g := ps.b.Snapshot()
	g.ApplyLabels(ps.src)
	dirty, exact := g.DirtyDomainNames()
	if !exact {
		t.Fatal("fixture: inexact dirty set")
	}
	ps.gs.advance(g, dirty, true)
}

// TestPruneShiftForcesFullPass: a delta pass whose prune plan resolves to
// other global thresholds than the ones the previous rows were scored
// under cannot keep those rows — the pruning fate of untouched domains
// may have moved — so it is served as a full pass: every row re-versioned,
// prune=shifted on the abandoned delta span. That holds when the pass
// itself recomputes the plan, and when a lookup in between already did.
func TestPruneShiftForcesFullPass(t *testing.T) {
	ps, g1 := newPruneStream()
	tr := obs.NewTracer(obs.TracerConfig{RingSize: 16})
	ts := newPruneServer(t, g1, ps.gs, func(cfg *Config) { cfg.Tracer = tr })

	// passAttrs classifies all and returns the reply plus the attributes
	// of the pass's classify spans, in order.
	passAttrs := func() (ClassifyResponse, []map[string]string) {
		t.Helper()
		resp := classifyAllOK(t, ts)
		trace := tr.Dump().Recent[0]
		if trace.Root != "http.classify" {
			t.Fatalf("newest trace is %q, want the classify request", trace.Root)
		}
		var attrs []map[string]string
		for _, sp := range trace.Spans {
			if sp.Name == obs.StageClassify {
				attrs = append(attrs, sp.Attrs)
			}
		}
		return resp, attrs
	}
	requireShiftedFullPass := func(when string) {
		t.Helper()
		resp, attrs := passAttrs()
		if len(attrs) != 2 || attrs[0]["mode"] != "delta" || attrs[0]["prune"] != "shifted" || attrs[1]["mode"] != "full" {
			t.Fatalf("%s: classify spans = %v, want a delta span with prune=shifted, then a full one", when, attrs)
		}
		if len(resp.Detections) != 4 {
			t.Fatalf("%s: %d detections, want 4", when, len(resp.Detections))
		}
		for _, d := range resp.Detections {
			if d.ScoreVersion != resp.GraphVersion {
				t.Fatalf("%s: %s kept scoreVersion %d at graph version %d", when, d.Domain, d.ScoreVersion, resp.GraphVersion)
			}
		}
	}
	// growMachines adds n machines: thetaM is a third of the machine
	// count, so three more always move it.
	machines := 0
	growMachines := func(b *graph.Builder) {
		for i := 0; i < 3; i++ {
			b.AddQuery(fmt.Sprintf("new%02d", machines), "unk.gray0.org")
			machines++
		}
	}

	passAttrs()
	// A change that moves no threshold stays a delta pass.
	ps.step(t, func(b *graph.Builder) { b.AddResolution("unk.gray0.org", dnsutil.IPv4(0x0cff0000)) })
	if _, attrs := passAttrs(); len(attrs) != 1 || attrs[0]["mode"] != "delta" || attrs[0]["prune"] != "cached" {
		t.Fatalf("threshold-neutral delta: classify spans = %v, want one cached delta span", attrs)
	}

	ps.step(t, growMachines)
	requireShiftedFullPass("plan recomputed by the pass")

	// The same growth again, but a lookup of an untouched domain reaches
	// the session first and recomputes the plan: the pass then finds a plan
	// that is valid for its snapshot, and must still notice that it is not
	// the one its previous rows were scored under.
	ps.step(t, growMachines)
	scans := graph.FullGraphScans()
	if code, raw := getJSON(t, ts.URL+"/v1/domains/unk.gray1.org", nil); code != http.StatusOK {
		t.Fatalf("lookup: %d %s", code, raw)
	}
	if graph.FullGraphScans() == scans {
		t.Fatal("fixture: the lookup did not recompute the prune plan")
	}
	scans = graph.FullGraphScans()
	requireShiftedFullPass("plan recomputed by a lookup")
	if after := graph.FullGraphScans(); after != scans {
		t.Fatalf("the pass ran %d full-graph scans: the lookup's plan should have served it", after-scans)
	}
}

// TestLookupMatchesClassifyAll: at one graph version a domain has one
// score, whichever endpoint serves it — GET /v1/domains/{name}, POST
// /v1/classify with the name, or its classify-all row — whether the pass
// for that version has run yet (cached) or not (scored on demand through
// the same session), before and after a detector reload.
func TestLookupMatchesClassifyAll(t *testing.T) {
	ps, g1 := newPruneStream()
	ts := newPruneServer(t, g1, ps.gs, nil)

	// onDemand scores every unknown domain through both by-name endpoints
	// and requires them to agree with each other and, when given, with
	// the classify-all rows of the same version.
	onDemand := func(when string, version uint64, rows map[string]float64) map[string]float64 {
		t.Helper()
		scores := map[string]float64{}
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("unk.gray%d.org", i)
			var dom DomainResponse
			if code, raw := getJSON(t, ts.URL+"/v1/domains/"+name, &dom); code != http.StatusOK || dom.Score == nil {
				t.Fatalf("%s: lookup %s: %d %s", when, name, code, raw)
			}
			var one ClassifyResponse
			if code, raw := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Domains: []string{name}}, &one); code != http.StatusOK || len(one.Detections) != 1 {
				t.Fatalf("%s: classify %s: %d %s", when, name, code, raw)
			}
			if dom.GraphVersion != version || one.GraphVersion != version {
				t.Fatalf("%s: %s answered at versions %d/%d, want %d", when, name, dom.GraphVersion, one.GraphVersion, version)
			}
			if *dom.Score != one.Detections[0].Score {
				t.Fatalf("%s: %s: lookup score %v != classify score %v", when, name, *dom.Score, one.Detections[0].Score)
			}
			if want, ok := rows[name]; rows != nil && (!ok || want != *dom.Score) {
				t.Fatalf("%s: %s: by-name score %v, classify-all row %v (present=%v)", when, name, *dom.Score, want, ok)
			}
			scores[name] = *dom.Score
		}
		return scores
	}
	// agree runs the by-name endpoints before the pass for this version
	// (on demand) and after it (from the pass), against the pass's rows.
	agree := func(when string, version uint64) {
		t.Helper()
		before := onDemand(when+", before the pass", version, nil)
		all := classifyAllOK(t, ts)
		if all.GraphVersion != version || len(all.Detections) != 4 {
			t.Fatalf("%s: classify-all at version %d with %d rows, want %d with 4", when, all.GraphVersion, len(all.Detections), version)
		}
		rows := map[string]float64{}
		for _, d := range all.Detections {
			rows[d.Domain] = d.Score
		}
		for name, score := range before {
			if rows[name] != score {
				t.Fatalf("%s: %s scored %v on demand, %v by the pass", when, name, score, rows[name])
			}
		}
		onDemand(when+", after the pass", version, rows)
	}

	agree("cold", 1)
	ps.step(t, func(b *graph.Builder) { b.AddResolution("unk.gray0.org", dnsutil.IPv4(0x0cff0000)) })
	agree("after a delta", 2)
	if code, raw := postJSON(t, ts.URL+"/v1/reload", nil, nil); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, raw)
	}
	onDemand("after a reload, from the fresh session", 2, nil)
	ps.step(t, func(b *graph.Builder) { b.AddResolution("unk.gray1.org", dnsutil.IPv4(0x0cff0001)) })
	agree("after a reload", 3)
}

// TestLookupDoesNotWaitForPass: readers load the last completed pass; they
// do not queue behind the one in production. With a pass stalled (and a
// tuning reload parked behind it, as it must be), a lookup of a domain the
// previous pass scored answers at once with that pass's score.
func TestLookupDoesNotWaitForPass(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var hold atomic.Bool
	ts := lbpTestServer(t, func(cfg *Config) {
		cfg.PassHook = func(ctx context.Context) {
			if hold.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		}
	})
	first := classifyAllOK(t, ts)

	hold.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/classify", nil, nil)
	}()
	<-entered // a pass now holds the production mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ts.srv.reloadTuning(); err != nil {
			t.Errorf("tuning reload: %v", err)
		}
	}()

	type lookup struct {
		code int
		resp DomainResponse
	}
	answered := make(chan lookup, 1)
	go func() {
		var l lookup
		l.code, _ = getJSON(t, ts.URL+"/v1/domains/unk0.gray.org", &l.resp)
		answered <- l
	}()
	select {
	case l := <-answered:
		if l.code != http.StatusOK || l.resp.Score == nil || l.resp.ScoreVersion != first.GraphVersion {
			t.Errorf("lookup beside a stalled pass: code %d, score %v, scoreVersion %d; want the previous pass's score at version %d",
				l.code, l.resp.Score, l.resp.ScoreVersion, first.GraphVersion)
		}
		if len(l.resp.Detectors) != 3 {
			t.Errorf("lookup beside a stalled pass: detectors = %v, want the previous pass's forest+lbp+fused", l.resp.Detectors)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("lookup waited for the pass in production")
	}
	close(release)
	wg.Wait()
}

// TestDomainLookupUsesCache checks GET /v1/domains/{name} serves the
// cached classify-all score (with its version) instead of re-running the
// pipeline when the cache is current.
func TestDomainLookupUsesCache(t *testing.T) {
	ts := newTestServer(t, nil)

	// Prime the cache.
	var cResp ClassifyResponse
	if code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &cResp); code != http.StatusOK {
		t.Fatalf("classify: status %d: %s", code, raw)
	}

	var resp DomainResponse
	code, raw := getJSON(t, ts.URL+"/v1/domains/unk1.gray.org", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Score == nil || resp.ScoreVersion != cResp.GraphVersion {
		t.Fatalf("score/scoreVersion = %v/%d, want cached score at version %d",
			resp.Score, resp.ScoreVersion, cResp.GraphVersion)
	}
	for _, d := range cResp.Detections {
		if d.Domain == "unk1.gray.org" && d.Score != *resp.Score {
			t.Fatalf("lookup score %v != cached classify score %v", *resp.Score, d.Score)
		}
	}
}

// TestTrackerPassAndEndpoint runs the periodic deployment loop once and
// reads it back through GET /v1/tracker.
func TestTrackerPassAndEndpoint(t *testing.T) {
	trk := tracker.New()
	ts := newTestServer(t, func(cfg *Config) { cfg.Tracker = trk })

	diff, err := ts.srv.RunTrackerPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if diff.Day != 42 {
		t.Fatalf("diff day = %d, want 42", diff.Day)
	}
	if len(diff.New) != trk.Len() {
		t.Fatalf("diff.New has %d domains, tracker holds %d", len(diff.New), trk.Len())
	}

	var resp TrackerResponse
	code, raw := getJSON(t, ts.URL+"/v1/tracker", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Tracked != trk.Len() || len(resp.Entries) != trk.Len() {
		t.Fatalf("tracked/entries = %d/%d, want %d", resp.Tracked, len(resp.Entries), trk.Len())
	}
	for _, e := range resp.Entries {
		if e.FirstDetected != 42 || e.DaysDetected != 1 || e.Machines == 0 {
			t.Fatalf("entry %+v: want firstDetected=42, daysDetected=1, machines>0", e)
		}
	}

	// The pass went through the classify-all cache: a second pass on the
	// same snapshot is pure cache hits and reports everything recurring.
	diff2, err := ts.srv.RunTrackerPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(diff2.New) != 0 || len(diff2.Recurring) != len(diff.New) {
		t.Fatalf("second pass: %d new, %d recurring, want 0/%d", len(diff2.New), len(diff2.Recurring), len(diff.New))
	}

	// minDays filter: everything has 1 detection day.
	code, _ = getJSON(t, ts.URL+"/v1/tracker?minDays=2", &resp)
	if code != http.StatusOK || len(resp.Entries) != 0 {
		t.Fatalf("minDays=2: status %d, %d entries, want 200 and none", code, len(resp.Entries))
	}
}

// TestTrackerWithoutTracker checks the endpoint degrades to 503.
func TestTrackerWithoutTracker(t *testing.T) {
	ts := newTestServer(t, nil)
	code, _ := getJSON(t, ts.URL+"/v1/tracker", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
}

// TestPprofMounted checks the profiling surface answers when enabled and
// is absent by default.
func TestPprofMounted(t *testing.T) {
	ts := newTestServer(t, func(cfg *Config) { cfg.EnablePprof = true })
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d, want 200", resp.StatusCode)
	}

	off := newTestServer(t, nil)
	resp, err = http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof answered while disabled")
	}
}
