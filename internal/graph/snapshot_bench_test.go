package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/intel"
)

// benchEvent is one pre-generated observation, so the benchmarks measure
// graph work rather than fmt.Sprintf.
type benchEvent struct {
	machine, domain string
	ip              dnsutil.IPv4
	hasIP           bool
}

// benchEvents generates a reproducible event stream with a realistic
// shape: machine and domain popularity are skewed, and a seventh of the
// events carry a resolution.
func benchEvents(n int) []benchEvent {
	rng := rand.New(rand.NewSource(42))
	events := make([]benchEvent, n)
	for i := range events {
		m := rng.Intn(4000)
		d := rng.Intn(15000)
		events[i] = benchEvent{
			machine: fmt.Sprintf("m%05d", m),
			domain:  fmt.Sprintf("h%d.zone%d.example.com", d, d%700),
		}
		if i%7 == 0 {
			events[i].ip = dnsutil.IPv4(rng.Uint32())
			events[i].hasIP = true
		}
	}
	return events
}

func feed(b *Builder, events []benchEvent) {
	for _, e := range events {
		b.AddQuery(e.machine, e.domain)
		if e.hasIP {
			b.AddResolution(e.domain, e.ip)
		}
	}
}

const (
	benchGraphEvents = 100_000
	benchBatch       = 32
)

// BenchmarkSnapshotIncremental measures the amortized cost the daemon
// actually pays: one snapshot after a small batch of appends, against a
// large established graph. Compare with BenchmarkSnapshotFullRebuild at
// the same graph size — the incremental path must be orders of magnitude
// cheaper in both ns/op and B/op.
func BenchmarkSnapshotIncremental(b *testing.B) {
	events := benchEvents(benchGraphEvents + (b.N+1)*benchBatch)
	builder := NewBuilder("bench", 1, dnsutil.DefaultSuffixList())
	feed(builder, events[:benchGraphEvents])
	builder.Snapshot()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := benchGraphEvents + i*benchBatch
		feed(builder, events[lo:lo+benchBatch])
		builder.Snapshot()
	}
}

// BenchmarkSnapshotFullRebuild is the pre-incremental baseline: every
// snapshot reconstructs all per-snapshot state from scratch at the same
// graph size (full sort of the edge multiset, fresh name and index
// copies, CSR from zero) — the cost the seed implementation paid on
// every Snapshot call.
func BenchmarkSnapshotFullRebuild(b *testing.B) {
	events := benchEvents(benchGraphEvents + benchBatch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewBuilder("bench", 1, dnsutil.DefaultSuffixList())
		feed(builder, events)
		builder.Build()
	}
}

// BenchmarkSnapshotIdle measures the no-change fast path: a snapshot
// with nothing pending should reuse the frozen previous snapshot state.
func BenchmarkSnapshotIdle(b *testing.B) {
	builder := NewBuilder("bench", 1, dnsutil.DefaultSuffixList())
	feed(builder, benchEvents(benchGraphEvents))
	builder.Snapshot()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Snapshot()
	}
}

// BenchmarkAddResolutionManyIPs exercises the per-domain IP dedup on a
// domain accumulating many distinct addresses — linear scans below the
// threshold, a hash set beyond it.
func BenchmarkAddResolutionManyIPs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builder := NewBuilder("bench", 1, dnsutil.DefaultSuffixList())
		for ip := uint32(0); ip < 2048; ip++ {
			builder.AddResolution("fluxy.example.com", dnsutil.IPv4(ip))
		}
	}
}

// BenchmarkPrunePrepare is the O(graph) half of a full classify pass on its
// own: the combined prober + R1-R4 plan and the materialized pruned graph,
// over 60k domains on 20k e2LDs queried by 4k machines.
func BenchmarkPrunePrepare(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	builder := NewBuilder("bench", 1, dnsutil.DefaultSuffixList())
	bl := intel.NewBlacklist()
	for i := 0; i < 300_000; i++ {
		d := rng.Intn(60_000)
		name := fmt.Sprintf("h%d.zone%d.com", d, d%20_000)
		if d%500 == 0 {
			bl.Add(intel.BlacklistEntry{Domain: name, FirstListed: 0})
		}
		builder.AddQuery(fmt.Sprintf("m%05d", rng.Intn(4000)), name)
	}
	g := builder.Snapshot()
	g.ApplyLabels(LabelSources{Blacklist: bl, AsOf: 1})
	prober := DefaultProberConfig()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := NewPrunePlan(g, &prober, DefaultPruneConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Materialize().NumDomains() == 0 {
			b.Fatal("everything pruned")
		}
	}
}

// BenchmarkSortEdges sorts one snapshot's worth of pending edges shaped
// like an isp-50k day (50k machines, 110k domains, 200k edges) with the
// radix sort mergePending uses and with slices.Sort. scripts/
// bench-allocs.sh gates the radix sort at 3x slices.Sort or better.
func BenchmarkSortEdges(b *testing.B) {
	const nm, nd = 50_000, 110_000
	edges := randomEdges(rand.New(rand.NewSource(42)), 200_000, nm, nd)
	work := make([]edge, len(edges))
	for _, bc := range []struct {
		name string
		sort func([]edge)
	}{
		{"radix", func(p []edge) { sortEdges(p, nm, nd) }},
		{"slices", func(p []edge) { slices.Sort(p) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, edges)
				b.StartTimer()
				bc.sort(work)
			}
		})
	}
}
