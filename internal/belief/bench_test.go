package belief

import (
	"fmt"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
)

var benchGraph *graph.Graph

// benchSetup builds the benchmark workload once: ~100k unknown domains
// plus labeled seed domains, each unknown queried by one to three of 20k
// machines, and ten fresh single-edge domains.
func benchSetup(b *testing.B) *graph.Graph {
	b.Helper()
	if benchGraph != nil {
		return benchGraph
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
	for i := 0; i < 10; i++ {
		bld.AddQuery(fmt.Sprintf("m%d", i*101), fmt.Sprintf("dirty%d.fresh.org", i))
	}
	g := bld.Build()
	g.ApplyLabels(graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: 1})
	benchGraph = g
	return g
}

// BenchmarkLBPFull is a cold full propagation of the 100k-unknown graph.
func BenchmarkLBPFull(b *testing.B) {
	g := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Propagate(g, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
