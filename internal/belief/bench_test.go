package belief

import (
	"fmt"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
)

// benchLineage builds the acceptance-criteria workload: ~100k unknown
// domains plus labeled seed domains, then a 10-dirty-domain delta step.
// Returned are the warm snapshot, the delta snapshot, and their deltas.
type benchLineage struct {
	g0, g1         *graph.Graph
	delta0, delta1 graph.Delta
	cfg            Config
	warmed         *Engine
	warmedState    *engineState
	spareState     *engineState
	v0, v1         uint64
}

var benchShared *benchLineage

func benchSetup(b *testing.B) *benchLineage {
	b.Helper()
	if benchShared != nil {
		return benchShared
	}
	bl := intel.NewBlacklist()
	wl := intel.NewWhitelist([]string{"good.com"})
	bld := graph.NewBuilder("BENCH", 1, dnsutil.DefaultSuffixList())

	const (
		machines = 20000
		unknowns = 100000
		labeled  = 2000
	)
	for i := 0; i < labeled; i++ {
		bl.Add(intel.BlacklistEntry{Domain: fmt.Sprintf("c%d.evil.net", i), FirstListed: 0})
	}
	// Labeled seeds: each queried by a handful of machines.
	for i := 0; i < labeled; i++ {
		bld.AddQuery(fmt.Sprintf("m%d", (i*7)%machines), fmt.Sprintf("c%d.evil.net", i))
		bld.AddQuery(fmt.Sprintf("m%d", (i*13+1)%machines), fmt.Sprintf("www.g%d.good.com", i%50))
	}
	// Unknown mass: 1-3 querying machines each.
	for i := 0; i < unknowns; i++ {
		name := fmt.Sprintf("u%d.x%d.net", i, i%97)
		for k := 0; k <= i%3; k++ {
			bld.AddQuery(fmt.Sprintf("m%d", (i*31+k*17)%machines), name)
		}
	}
	lbl := func(g *graph.Graph) {
		g.ApplyLabels(graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: 1})
		bld.MarkLabeled(g)
	}

	g0 := bld.Snapshot()
	lbl(g0)
	delta0 := g0.DeltaOf(g0.DirtyDomains())

	// The delta step: 10 fresh unknown domains, one edge each.
	for i := 0; i < 10; i++ {
		bld.AddQuery(fmt.Sprintf("m%d", i*101), fmt.Sprintf("dirty%d.fresh.org", i))
	}
	g1 := bld.Snapshot()
	lbl(g1)
	delta1 := g1.DeltaOf(g1.DirtyDomains())
	if !delta1.Exact {
		b.Fatal("bench delta should be exact")
	}

	cfg := Config{}.withDefaults()
	eng := NewEngine(cfg)
	if _, err := eng.Run(g0, 1, 0, delta0); err != nil {
		b.Fatal(err)
	}
	// A second, array-disjoint state donates buffer capacity to each
	// rewound iteration, matching the engine's steady-state spare reuse.
	spare := newEngineState(g0, 1, cfg)
	benchShared = &benchLineage{
		g0: g0, g1: g1,
		delta0: delta0,
		delta1: delta1,
		cfg:    cfg,
		warmed: eng, warmedState: eng.st, spareState: spare,
		v0: 1, v1: 2,
	}
	return benchShared
}

// BenchmarkLBPFull is a cold full propagation of the 100k-unknown
// graph — the cost every pass would pay without persistent state.
func BenchmarkLBPFull(b *testing.B) {
	s := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(s.cfg)
		if _, err := eng.Run(s.g1, s.v1, 0, graph.Delta{Exact: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLBPResidual is the incremental delta pass: 10 dirty domains
// against the warmed 100k-unknown state. Each iteration rewinds the
// engine to the warm snapshot's state (advance copies, so the warm
// state is never mutated) and replays the delta.
func BenchmarkLBPResidual(b *testing.B) {
	s := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.warmed.st = s.warmedState
		s.warmed.spare = s.spareState
		b.StartTimer()
		res, err := s.warmed.Run(s.g1, s.v1, s.v0, s.delta1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Mode != ModeResidual {
			b.Fatalf("mode = %q, want residual", res.Mode)
		}
	}
}
