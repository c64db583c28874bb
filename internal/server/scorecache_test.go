package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/ingest"
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
	dirty   []int32
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
		return s.g, s.version, s.g.DeltaOf(s.dirty, true)
	default:
		return s.g, s.version, graph.Delta{}
	}
}

// advance publishes a new snapshot whose delta against the previous
// version is the given dirty set.
func (s *deltaSource) advance(g *graph.Graph, dirty []int32, exact bool) {
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
	dirty, exact := g2.DirtyDomains()
	if !exact || len(dirty) != 1 || g2.DomainName(dirty[0]) != "unk0.gray.org" {
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
		dirty, exact := g2.DirtyDomains()
		if !exact || len(dirty) != 1 || g2.DomainName(dirty[0]) != "unk.gray0.org" {
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
	dirty, exact := g.DirtyDomains()
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
// itself recomputes the plan, and when a lookup that fell through to the
// live graph in between already did; a lookup the last pass answers
// touches neither the graph nor the session.
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

	// A lookup the last pass can answer builds nothing and leaves the
	// session alone: after a threshold-neutral step it runs no graph scan,
	// answers at the pass's version, and the pass after it is still a
	// cached delta.
	passVersion := ps.gs.Version()
	ps.step(t, func(b *graph.Builder) { b.AddResolution("unk.gray0.org", dnsutil.IPv4(0x0cff0001)) })
	scans := graph.FullGraphScans()
	var dom DomainResponse
	if code, raw := getJSON(t, ts.URL+"/v1/domains/unk.gray1.org", &dom); code != http.StatusOK {
		t.Fatalf("lookup: %d %s", code, raw)
	}
	if dom.Score == nil || dom.GraphVersion != passVersion || dom.LiveVersion != passVersion+1 {
		t.Fatalf("lookup beside a moved graph: score %v at version %d (live %d), want the pass's score at %d (live %d)",
			dom.Score, dom.GraphVersion, dom.LiveVersion, passVersion, passVersion+1)
	}
	if after := graph.FullGraphScans(); after != scans {
		t.Fatalf("a lookup the pass answers ran %d full-graph scans", after-scans)
	}
	if _, attrs := passAttrs(); len(attrs) != 1 || attrs[0]["mode"] != "delta" || attrs[0]["prune"] != "cached" {
		t.Fatalf("pass after a pass-served lookup: classify spans = %v, want one cached delta span", attrs)
	}

	// The same growth again, but a lookup reaches the session first — of a
	// name younger than the last pass, which falls through to the live
	// graph — and recomputes the plan: the pass then finds a plan that is
	// valid for its snapshot, and must still notice that it is not the one
	// its previous rows were scored under.
	ps.step(t, func(b *graph.Builder) {
		growMachines(b)
		b.AddQuery("inf00", "young.gray9.org")
	})
	scans = graph.FullGraphScans()
	if code, raw := getJSON(t, ts.URL+"/v1/domains/young.gray9.org", nil); code != http.StatusOK {
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

// TestLookupMatchesClassifyAll: a domain has one score per pass, whichever
// endpoint serves it — GET /v1/domains/{name}, POST /v1/classify with the
// name, or its classify-all row — and the by-name endpoints say which
// pass: they answer at the last pass's graphVersion, with liveVersion set
// while the graph has moved past it, and at the live version (scored on
// demand through the same session) only while no pass exists for the
// loaded detector — before the first one and after a reload.
func TestLookupMatchesClassifyAll(t *testing.T) {
	ps, g1 := newPruneStream()
	ts := newPruneServer(t, g1, ps.gs, nil)

	// byName scores every unknown domain through both by-name endpoints and
	// requires them to answer at the given versions, to agree with each
	// other and, when given, with the classify-all rows.
	byName := func(when string, version, live uint64, rows map[string]float64) map[string]float64 {
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
			if dom.GraphVersion != version || one.GraphVersion != version || dom.LiveVersion != live || one.LiveVersion != live {
				t.Fatalf("%s: %s answered at versions %d/%d (live %d/%d), want %d (live %d)",
					when, name, dom.GraphVersion, one.GraphVersion, dom.LiveVersion, one.LiveVersion, version, live)
			}
			if *dom.Score != one.Detections[0].Score || dom.ScoreVersion != one.Detections[0].ScoreVersion {
				t.Fatalf("%s: %s: lookup score %v@%d != classify score %v@%d", when, name,
					*dom.Score, dom.ScoreVersion, one.Detections[0].Score, one.Detections[0].ScoreVersion)
			}
			if want, ok := rows[name]; rows != nil && (!ok || want != *dom.Score) {
				t.Fatalf("%s: %s: by-name score %v, classify-all row %v (present=%v)", when, name, *dom.Score, want, ok)
			}
			scores[name] = *dom.Score
		}
		return scores
	}
	// pass runs classify-all at the given version and returns its rows,
	// which must equal the on-demand scores of the same version, if given.
	pass := func(when string, version uint64, onDemand map[string]float64) map[string]float64 {
		t.Helper()
		all := classifyAllOK(t, ts)
		if all.GraphVersion != version || len(all.Detections) != 4 {
			t.Fatalf("%s: classify-all at version %d with %d rows, want %d with 4", when, all.GraphVersion, len(all.Detections), version)
		}
		rows := map[string]float64{}
		for _, d := range all.Detections {
			rows[d.Domain] = d.Score
		}
		for name, score := range onDemand {
			if rows[name] != score {
				t.Fatalf("%s: %s scored %v on demand, %v by the pass", when, name, score, rows[name])
			}
		}
		return rows
	}
	live := func() int64 { return ts.srv.lookupsLive.Value() }

	onDemand := byName("cold, from the live graph", 1, 0, nil)
	rows := pass("cold", 1, onDemand)
	fromLive := live()
	byName("after the first pass", 1, 0, rows)

	ps.step(t, func(b *graph.Builder) { b.AddResolution("unk.gray0.org", dnsutil.IPv4(0x0cff0000)) })
	byName("after a delta, before its pass", 1, 2, rows)
	rows = pass("after a delta", 2, nil)
	byName("after a delta and its pass", 2, 0, rows)
	if live() != fromLive {
		t.Fatalf("%d by-name requests went to the live graph with a pass to answer them", live()-fromLive)
	}

	if code, raw := postJSON(t, ts.URL+"/v1/reload", nil, nil); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, raw)
	}
	ps.step(t, func(b *graph.Builder) { b.AddResolution("unk.gray1.org", dnsutil.IPv4(0x0cff0001)) })
	onDemand = byName("after a reload, from the live graph", 3, 0, nil)
	if live() != fromLive+8 {
		t.Fatalf("%d of 8 by-name requests went to the live graph after a reload", live()-fromLive)
	}
	rows = pass("after a reload", 3, onDemand)
	byName("after a reload and a pass", 3, 0, rows)
}

// countingSource is a live stream as a lookup sees it: the version moves
// on every read, and every snapshot taken is counted.
type countingSource struct {
	g         *graph.Graph
	version   atomic.Uint64
	snapshots atomic.Int64
}

func (s *countingSource) Snapshot() (*graph.Graph, uint64) {
	s.snapshots.Add(1)
	return s.g, s.version.Add(1)
}
func (s *countingSource) Day() int        { return s.g.Day() }
func (s *countingSource) Version() uint64 { return s.version.Add(1) }
func (s *countingSource) SnapshotSince(uint64) (*graph.Graph, uint64, graph.Delta) {
	return s.g, s.version.Add(1), graph.Delta{}
}

// lonelyName is an unknown domain one machine queries: R3 prunes it.
const lonelyName = "lonely.gray9.org"

// TestLookupTakesNoSnapshot: beside a stream that never stands still, a
// by-name request the last pass can answer — scored, pruned or listed —
// takes no snapshot, scans no graph, and is counted as served by the pass.
func TestLookupTakesNoSnapshot(t *testing.T) {
	b, src := pruneGraphParts(42)
	b.AddQuery("inf00", lonelyName)
	g := b.Snapshot()
	g.ApplyLabels(src)
	gs := &countingSource{g: g}
	ts := newPruneServer(t, g, gs, nil)
	pass := classifyAllOK(t, ts)
	scans := graph.FullGraphScans()

	const requests = 1000
	for i := 0; i < requests; i++ {
		scored := fmt.Sprintf("unk.gray%d.org", i%4)
		switch i % 5 {
		case 0, 1, 2:
			name := []string{scored, lonelyName, fmt.Sprintf("c2.evil%d.net", i%10)}[i%5]
			var dom DomainResponse
			if code, raw := getJSON(t, ts.URL+"/v1/domains/"+name, &dom); code != http.StatusOK {
				t.Fatalf("lookup %s: %d %s", name, code, raw)
			}
			if dom.GraphVersion != pass.GraphVersion || dom.LiveVersion <= pass.GraphVersion {
				t.Fatalf("lookup %s at version %d (live %d), want the pass's %d and a later live version", name, dom.GraphVersion, dom.LiveVersion, pass.GraphVersion)
			}
			if (dom.Score != nil) != (name == scored) || dom.Pruned != (name == lonelyName) || dom.QueryingMachines == 0 {
				t.Fatalf("lookup %s: score %v pruned %v machines %d", name, dom.Score, dom.Pruned, dom.QueryingMachines)
			}
		default:
			var one ClassifyResponse
			req := ClassifyRequest{Domains: []string{scored, lonelyName}}
			if code, raw := postJSON(t, ts.URL+"/v1/classify", req, &one); code != http.StatusOK {
				t.Fatalf("classify %v: %d %s", req.Domains, code, raw)
			}
			if one.GraphVersion != pass.GraphVersion || len(one.Detections) != 1 || one.Detections[0].Domain != scored ||
				len(one.Missing) != 1 || one.Missing[0] != lonelyName {
				t.Fatalf("classify %v: version %d, detections %v, missing %v", req.Domains, one.GraphVersion, one.Detections, one.Missing)
			}
		}
	}
	if n := gs.snapshots.Load(); n != 0 {
		t.Fatalf("%d by-name requests took %d snapshots", requests, n)
	}
	if after := graph.FullGraphScans(); after != scans {
		t.Fatalf("%d by-name requests ran %d full-graph scans", requests, after-scans)
	}
	if fromPass, live := ts.srv.lookupsPass.Value(), ts.srv.lookupsLive.Value(); fromPass != requests || live != 0 {
		t.Fatalf("lookups_total: pass %d, live %d, want %d and 0", fromPass, live, requests)
	}
}

// TestLookupFallsThrough: what the last pass cannot answer for goes to the
// live graph, so "not observed" stays exact and a name is never scored
// against a day it does not belong to.
func TestLookupFallsThrough(t *testing.T) {
	b, src := pruneGraphParts(42)
	b.AddQuery("inf00", lonelyName)
	g := b.Snapshot()
	g.ApplyLabels(src)
	ps := &pruneStream{b: b, src: src, gs: &deltaSource{g: g, version: 1}}
	ts := newPruneServer(t, g, ps.gs, nil)
	classifyAllOK(t, ts)
	lookup := func(name string, wantCode int) DomainResponse {
		t.Helper()
		var dom DomainResponse
		if code, raw := getJSON(t, ts.URL+"/v1/domains/"+name, &dom); code != wantCode {
			t.Fatalf("lookup %s: %d %s, want %d", name, code, raw, wantCode)
		}
		return dom
	}
	sources := func() (fromPass, live int64) { return ts.srv.lookupsPass.Value(), ts.srv.lookupsLive.Value() }

	// What the pass pruned it answers for: no score, and the reason.
	if dom := lookup(lonelyName, http.StatusOK); dom.Score != nil || !dom.Pruned || dom.GraphVersion != 1 {
		t.Fatalf("pruned name: score %v pruned %v at version %d, want no score, pruned, version 1", dom.Score, dom.Pruned, dom.GraphVersion)
	}
	var one ClassifyResponse
	if code, raw := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Domains: []string{lonelyName}}, &one); code != http.StatusOK ||
		len(one.Detections) != 0 || len(one.Missing) != 1 || one.Missing[0] != lonelyName {
		t.Fatalf("pruned name by classify: %d %s, want it missing", code, raw)
	}
	if fromPass, live := sources(); fromPass != 2 || live != 0 {
		t.Fatalf("pruned name: lookups pass/live = %d/%d, want 2/0", fromPass, live)
	}

	// A name interned after the pass is scored on the live graph; a name
	// nobody queried is 404, which only the live graph can say.
	ps.step(t, func(b *graph.Builder) {
		for m := 0; m < 5; m++ {
			b.AddQuery(fmt.Sprintf("inf%02d", m), "young.gray8.org")
		}
	})
	if dom := lookup("young.gray8.org", http.StatusOK); dom.Score == nil || dom.GraphVersion != 2 || dom.LiveVersion != 0 {
		t.Fatalf("name younger than the pass: score %v at version %d (live %d), want a score at the live version 2", dom.Score, dom.GraphVersion, dom.LiveVersion)
	}
	lookup("never.seen.example", http.StatusNotFound)
	if fromPass, live := sources(); fromPass != 2 || live != 2 {
		t.Fatalf("young and absent names: lookups pass/live = %d/%d, want 2/2", fromPass, live)
	}
	// A labeled name is evidence-only for GET, which the pass has; a
	// classify of it scores it with its label hidden, which no pass does.
	lookup("c2.evil0.net", http.StatusOK)
	if code, raw := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Domains: []string{"c2.evil0.net"}}, &one); code != http.StatusOK || len(one.Detections) != 1 {
		t.Fatalf("labeled name by classify: %d %s, want it scored", code, raw)
	}
	if fromPass, live := sources(); fromPass != 3 || live != 3 {
		t.Fatalf("labeled name: lookups pass/live = %d/%d, want 3/3", fromPass, live)
	}

	// The day rotates: the finished day's pass never answers for the new
	// day, not even for a name both days hold.
	b2, src2 := pruneGraphParts(43)
	g2 := b2.Snapshot()
	g2.ApplyLabels(src2)
	ps.gs.advance(g2, nil, false)
	if dom := lookup("unk.gray0.org", http.StatusOK); dom.Day != 43 || dom.GraphVersion != 3 || dom.Score == nil {
		t.Fatalf("after a rotation: day %d version %d score %v, want the new day's live graph", dom.Day, dom.GraphVersion, dom.Score)
	}
	if fromPass, live := sources(); fromPass != 3 || live != 4 {
		t.Fatalf("after a rotation: lookups pass/live = %d/%d, want 3/4", fromPass, live)
	}
	classifyAllOK(t, ts)
	if dom := lookup("unk.gray0.org", http.StatusOK); dom.Day != 43 || dom.Score == nil {
		t.Fatalf("after the new day's first pass: day %d score %v", dom.Day, dom.Score)
	}
	if fromPass, live := sources(); fromPass != 4 || live != 4 {
		t.Fatalf("after the new day's first pass: lookups pass/live = %d/%d, want 4/4", fromPass, live)
	}
}

// TestLookupDoesNotWaitForPass: readers load the last completed pass; they
// do not queue behind the one in production. With a pass stalled, a lookup
// of a domain the previous pass scored answers at once with that pass's
// score.
func TestLookupDoesNotWaitForPass(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var hold atomic.Bool
	ts := newTestServer(t, func(cfg *Config) {
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
	case <-time.After(100 * time.Millisecond):
		t.Error("lookup waited for the pass in production")
	}
	close(release)
	wg.Wait()

	// Nor do they queue behind a day rotation: with one parked in the
	// ingester's OnRotate hook the source already reports the new day, the
	// finished day's pass no longer answers, and the lookup is served from
	// the new day's live graph at once.
	parked, resume := make(chan struct{}), make(chan struct{})
	_, src := testGraphParts(t, 42)
	in := ingest.New(ingest.Config{
		Network: "live", StartDay: 42, Workers: 2,
		PrepareSnapshot: func(g *graph.Graph) { g.ApplyLabels(src) },
		OnRotate:        func(int, *graph.Graph) { close(parked); <-resume },
	})
	defer in.Shutdown()
	defer close(resume)
	var day strings.Builder
	for i := 0; i < 4; i++ {
		for m := 0; m < 5; m++ {
			fmt.Fprintf(&day, "q\t42\tinf%02d\tunk%d.gray.org\n", (i+m)%12, i)
		}
	}
	if err := in.Consume(strings.NewReader(day.String())); err != nil {
		t.Fatal(err)
	}
	rts := newTestServer(t, func(cfg *Config) { cfg.Graphs = in })
	for classifyAllOK(t, rts).Classified != 4 {
		time.Sleep(5 * time.Millisecond) // the workers are still applying the day
	}
	if err := in.Consume(strings.NewReader("q\t43\tinf00\tunk0.gray.org\n")); err != nil {
		t.Fatal(err)
	}
	<-parked
	go func() {
		var l lookup
		l.code, _ = getJSON(t, rts.URL+"/v1/domains/unk0.gray.org", &l.resp)
		answered <- l
	}()
	select {
	case l := <-answered:
		if l.code != http.StatusOK || l.resp.Day != 43 || l.resp.QueryingMachines != 1 {
			t.Errorf("lookup beside a parked rotation: code %d, day %d, %d machines; want the new day's graph (43, 1 machine)",
				l.code, l.resp.Day, l.resp.QueryingMachines)
		}
	case <-time.After(time.Second):
		t.Error("lookup waited for the rotation hook")
	}
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
