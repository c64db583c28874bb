package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/metrics"
	"segugio/internal/ml"
)

// The classify benchmarks measure the two classify-all regimes over a
// ~100k-unknown-domain graph: a cold full pass (prune pipeline + every
// unknown extracted) and a 10-dirty delta pass through the memoized
// session. The fixture is built once and shared; the delta benchmark
// keeps streaming into its builder, which is the daemon's real shape.
const (
	benchUnknown  = 100_000
	benchMalware  = 400
	benchBenign   = 800
	benchInfected = 400
	benchClean    = 3600
	benchDirty    = 10
)

type classifyBenchEnv struct {
	bld    *graph.Builder
	src    graph.LabelSources
	gs     *deltaSource
	srv    *Server
	handle *DetectorHandle
	step   uint32
}

// benchHandle wraps an in-memory detector in a handle, as a load from
// disk would.
func benchHandle(det *core.Detector) *DetectorHandle {
	h := &DetectorHandle{}
	h.install(det)
	return h
}

// reinstall swaps in a fresh load of the same detector: the next pass
// starts from an empty session (cold prune) and is a full one.
func reinstall(h *DetectorHandle) {
	det, _ := h.Get()
	h.install(det)
}

var classifyBench struct {
	once sync.Once
	env  *classifyBenchEnv
	err  error
}

func benchUnkName(i int) string {
	return fmt.Sprintf("u%d.z%d.org", i, i/2)
}

// benchPrunedName is an unknown domain one machine queries: R3 prunes it.
const benchPrunedName = "lonely.pruned.org"

func classifyBenchSetup() {
	bld := graph.NewBuilder("bench", 42, dnsutil.DefaultSuffixList())
	bl := intel.NewBlacklist()
	for i := 0; i < benchMalware; i++ {
		name := fmt.Sprintf("c2.evil%d.net", i)
		bl.Add(intel.BlacklistEntry{Domain: name, Family: "fam", FirstListed: 0})
		for m := 0; m < 6; m++ {
			bld.AddQuery(fmt.Sprintf("inf%03d", (i+m)%benchInfected), name)
		}
		bld.AddResolution(name, dnsutil.IPv4(0x0a000000+uint32(i)))
	}
	var whitelisted []string
	for i := 0; i < benchBenign; i++ {
		e2ld := fmt.Sprintf("good%d.com", i)
		whitelisted = append(whitelisted, e2ld)
		name := "www." + e2ld
		for m := 0; m < 8; m++ {
			bld.AddQuery(fmt.Sprintf("clean%04d", (i+m)%benchClean), name)
		}
	}
	// Unknown targets: one infected machine plus two clean ones each, on
	// two-domain e2LDs, so R3/R4 keep them.
	for i := 0; i < benchUnknown; i++ {
		name := benchUnkName(i)
		bld.AddQuery(fmt.Sprintf("inf%03d", i%benchInfected), name)
		bld.AddQuery(fmt.Sprintf("clean%04d", i%benchClean), name)
		bld.AddQuery(fmt.Sprintf("clean%04d", (i*7+1)%benchClean), name)
	}
	// Two proxy-degree machines own the top of the degree distribution,
	// so R2's percentile threshold lands on them and not on the infected
	// population (whose degrees tie closely).
	for i := 0; i < 5000; i++ {
		bld.AddQuery("heavy0", benchUnkName(i))
		bld.AddQuery("heavy1", benchUnkName(benchUnknown-1-i))
	}
	bld.AddQuery("clean0000", benchPrunedName)
	src := graph.LabelSources{Blacklist: bl, Whitelist: intel.NewWhitelist(whitelisted), AsOf: 42}

	g := bld.Snapshot()
	g.ApplyLabels(src)
	bld.MarkLabeled(g)

	cfg := core.DefaultConfig()
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := core.Train(cfg, core.TrainInput{Graph: g})
	if err != nil {
		classifyBench.err = fmt.Errorf("train: %w", err)
		return
	}

	gs := &deltaSource{g: g, version: 1}
	handle := benchHandle(det)
	srv := New(Config{
		Graphs:   gs,
		Detector: handle,
		Registry: metrics.NewRegistry(),
	})
	classifyBench.env = &classifyBenchEnv{bld: bld, src: src, gs: gs, srv: srv, handle: handle}
}

func classifyBenchEnvFor(b *testing.B) *classifyBenchEnv {
	b.Helper()
	classifyBench.once.Do(classifyBenchSetup)
	if classifyBench.err != nil {
		b.Fatal(classifyBench.err)
	}
	return classifyBench.env
}

// advanceDirty streams benchDirty domain touches into the builder and
// publishes the next snapshot with its exact dirty set.
func (env *classifyBenchEnv) advanceDirty(b *testing.B) {
	b.Helper()
	env.step++
	for j := 0; j < benchDirty; j++ {
		i := int(env.step)*benchDirty + j
		env.bld.AddResolution(benchUnkName(i%benchUnknown), dnsutil.IPv4(0x30000000+uint32(i)))
	}
	g := env.bld.Snapshot()
	g.ApplyLabels(env.src)
	env.bld.MarkLabeled(g)
	dirty, exact := g.DirtyDomains()
	if !exact || len(dirty) != benchDirty {
		b.Fatalf("dirty = %d domains (exact=%v), want %d", len(dirty), exact, benchDirty)
	}
	env.gs.advance(g, dirty, true)
}

// BenchmarkClassifyAllFull is the cold pass: the session memo is dropped
// every iteration, so each pass pays the full prune pipeline plus the
// extraction and scoring of every unknown domain.
func BenchmarkClassifyAllFull(b *testing.B) {
	env := classifyBenchEnvFor(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env.gs.advance(env.gs.g, nil, false) // inexact: a full pass
		reinstall(env.handle)                // drop the memo: cold prune
		b.StartTimer()
		p, _, err := env.srv.classifyAll(ctx, env.srv.model())
		if err != nil {
			b.Fatal(err)
		}
		if len(p.rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// shardedBenchEnv is the classifyBenchEnv fixture built the way the
// sharded ingest backend builds it: events routed by machine/domain hash
// into per-shard stages of day-builder ids, folded into the day builder
// whose snapshot feeds the server.
type shardedBenchEnv struct {
	stages []graph.Stage
	day    *graph.Builder
	src    graph.LabelSources
	gs     *deltaSource
	srv    *Server
	step   uint32
}

var shardedBench struct {
	once sync.Once
	env  *shardedBenchEnv
	err  error
}

func (env *shardedBenchEnv) addQuery(machine, domain string) {
	env.stages[graph.ShardOf(machine, len(env.stages))].AddEdge(env.day.Machine(machine), env.day.Domain(domain))
}

func (env *shardedBenchEnv) addResolution(domain string, ip dnsutil.IPv4) {
	env.stages[graph.ShardOf(domain, len(env.stages))].AddAddress(env.day.Domain(domain), ip)
}

// mergeSnapshot folds every shard's stage into the day builder and
// publishes its next labeled snapshot — the fold whose cost the sharded
// delta benchmark bounds.
func (env *shardedBenchEnv) mergeSnapshot() *graph.Graph {
	env.day.Fold(env.stages)
	g := env.day.Snapshot()
	g.ApplyLabels(env.src)
	env.day.MarkLabeled(g)
	return g
}

func shardedBenchSetup() {
	const shards = 4
	suffixes := dnsutil.DefaultSuffixList()
	env := &shardedBenchEnv{
		stages: make([]graph.Stage, shards),
		day:    graph.NewBuilder("bench", 42, suffixes),
	}
	bl := intel.NewBlacklist()
	for i := 0; i < benchMalware; i++ {
		name := fmt.Sprintf("c2.evil%d.net", i)
		bl.Add(intel.BlacklistEntry{Domain: name, Family: "fam", FirstListed: 0})
		for m := 0; m < 6; m++ {
			env.addQuery(fmt.Sprintf("inf%03d", (i+m)%benchInfected), name)
		}
		env.addResolution(name, dnsutil.IPv4(0x0a000000+uint32(i)))
	}
	var whitelisted []string
	for i := 0; i < benchBenign; i++ {
		e2ld := fmt.Sprintf("good%d.com", i)
		whitelisted = append(whitelisted, e2ld)
		name := "www." + e2ld
		for m := 0; m < 8; m++ {
			env.addQuery(fmt.Sprintf("clean%04d", (i+m)%benchClean), name)
		}
	}
	for i := 0; i < benchUnknown; i++ {
		name := benchUnkName(i)
		env.addQuery(fmt.Sprintf("inf%03d", i%benchInfected), name)
		env.addQuery(fmt.Sprintf("clean%04d", i%benchClean), name)
		env.addQuery(fmt.Sprintf("clean%04d", (i*7+1)%benchClean), name)
	}
	for i := 0; i < 5000; i++ {
		env.addQuery("heavy0", benchUnkName(i))
		env.addQuery("heavy1", benchUnkName(benchUnknown-1-i))
	}
	env.src = graph.LabelSources{Blacklist: bl, Whitelist: intel.NewWhitelist(whitelisted), AsOf: 42}

	g := env.mergeSnapshot()
	cfg := core.DefaultConfig()
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := core.Train(cfg, core.TrainInput{Graph: g})
	if err != nil {
		shardedBench.err = fmt.Errorf("train: %w", err)
		return
	}
	env.gs = &deltaSource{g: g, version: 1}
	env.srv = New(Config{Graphs: env.gs, Detector: benchHandle(det), Registry: metrics.NewRegistry()})
	shardedBench.env = env
}

// advanceDirty routes benchDirty domain touches through the shard
// stages and publishes the next merged snapshot with its exact dirty
// set — the same delta the sharded ingester's snapshot path emits.
func (env *shardedBenchEnv) advanceDirty(b *testing.B) {
	b.Helper()
	env.step++
	for j := 0; j < benchDirty; j++ {
		i := int(env.step)*benchDirty + j
		env.addResolution(benchUnkName(i%benchUnknown), dnsutil.IPv4(0x30000000+uint32(i)))
	}
	g := env.mergeSnapshot()
	dirty, exact := g.DirtyDomains()
	if !exact || len(dirty) != benchDirty {
		b.Fatalf("dirty = %d domains (exact=%v), want %d", len(dirty), exact, benchDirty)
	}
	env.gs.advance(g, dirty, true)
}

// BenchmarkClassifyAllDeltaSharded is BenchmarkClassifyAllDelta over the
// sharded backend's folded snapshots: per-shard stages composed through
// the fold must keep the pass O(dirty) with the same
// allocs/op budget as the single-builder path.
func BenchmarkClassifyAllDeltaSharded(b *testing.B) {
	shardedBench.once.Do(shardedBenchSetup)
	if shardedBench.err != nil {
		b.Fatal(shardedBench.err)
	}
	env := shardedBench.env
	ctx := context.Background()
	env.gs.advance(env.gs.g, nil, false)
	if _, _, err := env.srv.classifyAll(ctx, env.srv.model()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env.advanceDirty(b)
		b.StartTimer()
		p, _, err := env.srv.classifyAll(ctx, env.srv.model())
		if err != nil {
			b.Fatal(err)
		}
		if p.rescored == 0 || p.rescored > benchDirty {
			b.Fatalf("rescored = %d, want 1..%d", p.rescored, benchDirty)
		}
	}
}

// BenchmarkClassifyAllDelta is the steady-state pass: benchDirty domains
// change per snapshot and everything else is kept from the previous pass
// through the memoized prune plan. The ns/op ratio against
// BenchmarkClassifyAllFull is the headline O(dirty)-vs-O(graph) number.
func BenchmarkClassifyAllDelta(b *testing.B) {
	env := classifyBenchEnvFor(b)
	ctx := context.Background()
	// Prime: one full pass so the session and the previous pass are warm.
	env.gs.advance(env.gs.g, nil, false)
	if _, _, err := env.srv.classifyAll(ctx, env.srv.model()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env.advanceDirty(b)
		b.StartTimer()
		p, _, err := env.srv.classifyAll(ctx, env.srv.model())
		if err != nil {
			b.Fatal(err)
		}
		if p.rescored == 0 || p.rescored > benchDirty {
			b.Fatalf("rescored = %d, want 1..%d", p.rescored, benchDirty)
		}
	}
}

// BenchmarkDomainLookupBesideIngest is GET /v1/domains/{name} as a reader
// beside a live stream pays for it: one pass up front, then the graph
// version moves before every request, so no request ever finds the pass
// current. A lookup the pass answers builds nothing — tens of allocations
// for the request, the evidence and the JSON; a snapshot, a prune plan or a
// view would show up as thousands (bench-allocs gates all three kinds).
func BenchmarkDomainLookupBesideIngest(b *testing.B) {
	env := classifyBenchEnvFor(b)
	env.gs.advance(env.gs.g, nil, false)
	if _, _, err := env.srv.classifyAll(context.Background(), env.srv.model()); err != nil {
		b.Fatal(err)
	}
	h := env.srv.Handler()
	for _, kind := range []struct{ name, domain string }{
		{"scored", benchUnkName(4711)},
		{"pruned", benchPrunedName},
		{"listed", "c2.evil7.net"},
	} {
		b.Run(kind.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/v1/domains/"+kind.domain, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env.gs.advance(env.gs.g, nil, true)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			if live := env.srv.lookupsLive.Value(); live != 0 {
				b.Fatalf("%d lookups fell through to the live graph", live)
			}
		})
	}
}
