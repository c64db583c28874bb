package belief

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
)

// lineage drives a Builder through labeled streaming snapshots the way
// the ingester does, handing each snapshot's dirty delta to the engine.
type lineage struct {
	t       *testing.T
	b       *graph.Builder
	bl      *intel.Blacklist
	wl      *intel.Whitelist
	day     int
	version uint64
}

func newLineage(t *testing.T, day int, whitelisted []string) *lineage {
	t.Helper()
	return &lineage{
		t:   t,
		b:   graph.NewBuilder("EQ", day, dnsutil.DefaultSuffixList()),
		bl:  intel.NewBlacklist(),
		wl:  intel.NewWhitelist(whitelisted),
		day: day,
	}
}

// snap takes a labeled streaming snapshot and returns it with its
// version and dirty delta, mirroring ingest.SnapshotSince(previous).
func (l *lineage) snap() (*graph.Graph, uint64, graph.Delta) {
	l.t.Helper()
	g := l.b.Snapshot()
	g.ApplyLabels(graph.LabelSources{Blacklist: l.bl, Whitelist: l.wl, AsOf: l.day})
	l.b.MarkLabeled(g)
	l.version++
	return g, l.version, g.DeltaOf(g.DirtyDomains())
}

// equivCfg converges tightly so residual and batch land on the same
// fixed point; beliefs are then compared at the looser production
// tolerance.
var equivCfg = Config{MaxIterations: 400, Tolerance: 1e-9}

const equivTol = 1e-4

func maxBeliefDiff(a, b *Result) float64 {
	max := 0.0
	for d := range a.DomainBelief {
		if diff := math.Abs(a.DomainBelief[d] - b.DomainBelief[d]); diff > max {
			max = diff
		}
	}
	for m := range a.MachineBelief {
		if diff := math.Abs(a.MachineBelief[m] - b.MachineBelief[m]); diff > max {
			max = diff
		}
	}
	return max
}

// checkStep runs the engine on the snapshot and asserts its beliefs
// match a cold batch propagation of the same graph.
func checkStep(t *testing.T, e *Engine, g *graph.Graph, v, since uint64, delta graph.Delta, wantMode string) *Result {
	t.Helper()
	res, err := e.Run(g, v, since, delta)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != wantMode {
		t.Fatalf("version %d: mode = %q, want %q (delta exact=%v, %d dirty)",
			v, res.Mode, wantMode, delta.Exact, len(delta.Domains))
	}
	batch, err := Propagate(g, equivCfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxBeliefDiff(res, batch); diff > equivTol {
		t.Fatalf("version %d (%s): max belief diff vs batch = %g, want <= %g",
			v, res.Mode, diff, equivTol)
	}
	return res
}

// TestEngineResidualMatchesBatch grows randomized graphs — two
// disconnected clusters — through many streaming snapshots and checks
// every residual pass against cold batch propagation.
func TestEngineResidualMatchesBatch(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var wl []string
			for i := 0; i < 6; i++ {
				wl = append(wl, fmt.Sprintf("good%d.com", i))
			}
			l := newLineage(t, 3, wl)
			// Cluster A: machines a0..a14 over evil/candidate domains.
			// Cluster B: machines b0..b9 over benign/other domains. The two
			// share no nodes, so deltas in one must leave the other's
			// beliefs untouched.
			domA := func(i int) string {
				if i%4 == 0 {
					return fmt.Sprintf("c%d.evil.net", i%5)
				}
				return fmt.Sprintf("cand%d.gray.org", i%20)
			}
			domB := func(i int) string {
				if i%3 == 0 {
					return fmt.Sprintf("www.good%d.com", i%6)
				}
				return fmt.Sprintf("other%d.misc.io", i%15)
			}
			for i := 0; i < 5; i++ {
				l.bl.Add(intel.BlacklistEntry{Domain: fmt.Sprintf("c%d.evil.net", i), FirstListed: 0})
			}
			for i := 0; i < 40; i++ {
				l.b.AddQuery(fmt.Sprintf("a%d", rng.Intn(15)), domA(rng.Intn(100)))
				l.b.AddQuery(fmt.Sprintf("b%d", rng.Intn(10)), domB(rng.Intn(100)))
			}

			e := NewEngine(equivCfg)
			g, v, delta := l.snap()
			if delta.Exact {
				t.Fatal("first snapshot delta should be inexact")
			}
			checkStep(t, e, g, v, 0, delta, ModeFull)

			since := v
			for step := 0; step < 8; step++ {
				// Grow one cluster per step: new edges among existing nodes,
				// brand-new machines, and brand-new domains.
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					switch rng.Intn(4) {
					case 0:
						l.b.AddQuery(fmt.Sprintf("a%d", rng.Intn(15)), domA(rng.Intn(100)))
					case 1:
						l.b.AddQuery(fmt.Sprintf("b%d", rng.Intn(10)), domB(rng.Intn(100)))
					case 2:
						l.b.AddQuery(fmt.Sprintf("fresh%d-%d", step, i), domA(rng.Intn(100)))
					default:
						l.b.AddQuery(fmt.Sprintf("a%d", rng.Intn(15)),
							fmt.Sprintf("new%d-%d.gray.org", step, i))
					}
				}
				g, v, delta = l.snap()
				if !delta.Exact {
					t.Fatalf("step %d: delta should be exact", step)
				}
				res := checkStep(t, e, g, v, since, delta, ModeResidual)
				if len(delta.Domains) > 0 && res.Seeds == 0 {
					t.Fatalf("step %d: %d dirty domains but residual pass seeded nothing",
						step, len(delta.Domains))
				}
				since = v
			}
		})
	}
}

// TestEngineZeroUnknownGraph: every domain labeled — residual passes
// must still agree with batch.
func TestEngineZeroUnknownGraph(t *testing.T) {
	l := newLineage(t, 1, []string{"good.com"})
	l.bl.Add(intel.BlacklistEntry{Domain: "c2.evil.net", FirstListed: 0})
	l.b.AddQuery("m1", "c2.evil.net")
	l.b.AddQuery("m2", "www.good.com")
	l.b.AddQuery("m1", "www.good.com")

	e := NewEngine(equivCfg)
	g, v, delta := l.snap()
	checkStep(t, e, g, v, 0, delta, ModeFull)

	l.b.AddQuery("m2", "c2.evil.net")
	g2, v2, delta2 := l.snap()
	checkStep(t, e, g2, v2, v, delta2, ModeResidual)
}

// TestEngineCachedOnSameVersion: re-running the same version does no
// propagation and returns the same beliefs.
func TestEngineCachedOnSameVersion(t *testing.T) {
	l := newLineage(t, 1, []string{"good.com"})
	l.bl.Add(intel.BlacklistEntry{Domain: "c2.evil.net", FirstListed: 0})
	l.b.AddQuery("m1", "c2.evil.net")
	l.b.AddQuery("m1", "u.gray.org")

	e := NewEngine(equivCfg)
	g, v, delta := l.snap()
	first, err := e.Run(g, v, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Run(g, v, v, graph.Delta{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Mode != ModeCached {
		t.Fatalf("mode = %q, want cached", again.Mode)
	}
	if diff := maxBeliefDiff(first, again); diff != 0 {
		t.Fatalf("cached beliefs differ by %g", diff)
	}
}

// TestEngineEscalation: inexact deltas, a mismatched since, and a day
// change each force a full pass.
func TestEngineEscalation(t *testing.T) {
	l := newLineage(t, 1, []string{"good.com"})
	l.bl.Add(intel.BlacklistEntry{Domain: "c2.evil.net", FirstListed: 0})
	l.b.AddQuery("m1", "c2.evil.net")
	l.b.AddQuery("m1", "u.gray.org")

	e := NewEngine(equivCfg)
	g, v, delta := l.snap()
	if _, err := e.Run(g, v, 0, delta); err != nil {
		t.Fatal(err)
	}

	l.b.AddQuery("m2", "u.gray.org")
	g2, v2, _ := l.snap()

	res, err := e.Run(g2, v2, v, graph.Delta{Exact: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("inexact delta: mode = %q, want full", res.Mode)
	}

	l.b.AddQuery("m3", "u.gray.org")
	g3, v3, delta3 := l.snap()
	res, err = e.Run(g3, v3, v, delta3) // since is stale: engine is at v2
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("stale since: mode = %q, want full", res.Mode)
	}

	// Day change: fresh lineage on another day, exact delta anyway.
	l2 := newLineage(t, 2, []string{"good.com"})
	l2.bl.Add(intel.BlacklistEntry{Domain: "c2.evil.net", FirstListed: 0})
	l2.b.AddQuery("m1", "c2.evil.net")
	g4, _, _ := l2.snap()
	c2, _ := g4.DomainIndex("c2.evil.net")
	res, err = e.Run(g4, v3+1, v3, g4.DeltaOf([]int32{c2}, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("day change: mode = %q, want full", res.Mode)
	}
}

// TestEngineBudgetExhaustionEscalates: a residual pass that runs out of
// update budget reports Converged=false and the next pass goes full.
func TestEngineBudgetExhaustionEscalates(t *testing.T) {
	l := newLineage(t, 1, []string{"good.com"})
	l.bl.Add(intel.BlacklistEntry{Domain: "c0.evil.net", FirstListed: 0})
	// One loopy cluster so message changes cascade around cycles.
	for m := 0; m < 8; m++ {
		for d := 0; d < 8; d++ {
			if (m+d)%2 == 0 {
				l.b.AddQuery(fmt.Sprintf("m%d", m), fmt.Sprintf("c%d.evil.net", d%2))
				l.b.AddQuery(fmt.Sprintf("m%d", m), fmt.Sprintf("u%d.gray.org", d))
			}
		}
	}
	// A starved budget (one update per node) with an unreachable
	// tolerance cannot drain the queue.
	cfg := Config{MaxIterations: 1, Tolerance: 1e-300}
	e := NewEngine(cfg)
	g, v, delta := l.snap()
	if _, err := e.Run(g, v, 0, delta); err != nil {
		t.Fatal(err)
	}

	l.b.AddQuery("m0", "u1.gray.org")
	g2, v2, delta2 := l.snap()
	res, err := e.Run(g2, v2, v, delta2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeResidual {
		t.Fatalf("mode = %q, want residual", res.Mode)
	}
	if res.Converged {
		t.Fatal("starved residual pass should not report convergence")
	}

	l.b.AddQuery("m0", "u3.gray.org")
	g3, v3, delta3 := l.snap()
	res, err = e.Run(g3, v3, v2, delta3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("pass after exhausted budget: mode = %q, want full", res.Mode)
	}
}

// TestEngineResultIsolation: mutating a returned Result must not affect
// the engine's state or later results.
func TestEngineResultIsolation(t *testing.T) {
	l := newLineage(t, 1, []string{"good.com"})
	l.bl.Add(intel.BlacklistEntry{Domain: "c2.evil.net", FirstListed: 0})
	l.b.AddQuery("m1", "c2.evil.net")
	l.b.AddQuery("m1", "u.gray.org")

	e := NewEngine(equivCfg)
	g, v, delta := l.snap()
	first, err := e.Run(g, v, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	want := first.DomainBelief[0]
	first.DomainBelief[0] = -1
	again, err := e.Run(g, v, v, graph.Delta{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.DomainBelief[0] != want {
		t.Fatalf("engine state aliased into result: %g != %g", again.DomainBelief[0], want)
	}
}

// TestEngineLastVersionAndReset exercises the bookkeeping accessors.
func TestEngineLastVersionAndReset(t *testing.T) {
	e := NewEngine(Config{})
	if _, ok := e.LastVersion(); ok {
		t.Fatal("fresh engine should have no version")
	}
	l := newLineage(t, 1, []string{"good.com"})
	l.bl.Add(intel.BlacklistEntry{Domain: "c2.evil.net", FirstListed: 0})
	l.b.AddQuery("m1", "c2.evil.net")
	g, v, delta := l.snap()
	if _, err := e.Run(g, v, 0, delta); err != nil {
		t.Fatal(err)
	}
	if got, ok := e.LastVersion(); !ok || got != v {
		t.Fatalf("LastVersion = %d,%v want %d,true", got, ok, v)
	}
	e.Reset()
	if _, ok := e.LastVersion(); ok {
		t.Fatal("reset engine should have no version")
	}
	res, err := e.Run(g, v, v, graph.Delta{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("post-reset mode = %q, want full", res.Mode)
	}
}

// TestPropagateReportsFullMode: the batch entry point tags its result.
func TestPropagateReportsFullMode(t *testing.T) {
	g := propagationFixture(t)
	res, err := Propagate(g, Config{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("mode = %q, want full", res.Mode)
	}
}
