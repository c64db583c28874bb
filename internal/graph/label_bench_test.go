package graph_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/trace"
)

const (
	steadyDay   = 90
	steadySeed  = 9601
	steadyWarm  = 500_000
	steadyEvent = 50_000
)

// steadyTap is one isp-50k-shaped day in a network tap's order: every
// edge twice, in seeded-shuffled order, and a domain's resolution just
// before its first query. An event with machine -1 is that resolution.
type steadyTap struct {
	cat      *trace.Catalog
	tr       *trace.DayTrace
	events   [][2]int32 // (machine or -1, domain)
	src      graph.LabelSources
	suffixes *dnsutil.SuffixList
}

var steady struct {
	once sync.Once
	tap  *steadyTap
	err  error
}

func newSteadyTap() (*steadyTap, error) {
	cfg := trace.DefaultConfig("isp", steadySeed)
	cfg.TimelineDays = 120
	cfg.Machines = 50000
	cfg.BenignE2LDs = 30000
	cfg.TailDomains = 40000
	cfg.SubdomainsPerZone = 1500
	cfg.Inactive = 3000
	cfg.Proxies = 20
	cat, err := trace.NewCatalog(cfg)
	if err != nil {
		return nil, err
	}
	arch := cat.RankArchive(trace.RankArchiveConfig{Days: 8, ListLen: 3 * cfg.BenignE2LDs / 4, JitterFraction: 0.02})
	wl, err := intel.BuildWhitelist(arch, intel.WhitelistConfig{ExcludeZones: cat.KnownFreeRegZones(0.6)})
	if err != nil {
		return nil, err
	}
	tap := &steadyTap{
		cat: cat,
		tr:  trace.NewGenerator(cat).GenerateDay(steadyDay),
		src: graph.LabelSources{
			Blacklist: cat.Blacklist(trace.BlacklistConfig{Coverage: 0.75, MeanListingDelayDays: 3, Salt: 1}),
			Whitelist: wl,
			AsOf:      steadyDay,
		},
		suffixes: dnsutil.DefaultSuffixList(),
	}
	order := make([]int32, 2*len(tap.tr.Edges))
	for i := range tap.tr.Edges {
		order[2*i], order[2*i+1] = int32(i), int32(i)
	}
	rng := rand.New(rand.NewSource(steadySeed*1000003 + steadyDay))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	seen := make([]bool, cat.NumDomains())
	tap.events = make([][2]int32, 0, len(order)+cat.NumDomains())
	for _, ei := range order {
		e := tap.tr.Edges[ei]
		if !seen[e.Domain] {
			seen[e.Domain] = true
			tap.events = append(tap.events, [2]int32{-1, e.Domain})
		}
		tap.events = append(tap.events, [2]int32{int32(e.Machine), e.Domain})
	}
	return tap, nil
}

// feed applies events [lo, hi) of the day to b.
func (tap *steadyTap) feed(b *graph.Builder, lo, hi int) {
	for _, e := range tap.events[lo:hi] {
		name := tap.cat.Name(e[1])
		if e[0] < 0 {
			b.SetDomainIPs(name, tap.cat.ResolveOn(steadyDay, e[1]))
		} else {
			b.AddQuery(tap.tr.MachineIDs[e[0]], name)
		}
	}
}

// BenchmarkSnapshotLabelSteady prices the snapshot and its labelling as
// a daemon under steady ingest pays them: an isp-50k-shaped day (50k
// machines, every edge twice, in tap order) warms a graph.Builder up with
// 500k events and one labeled snapshot, then each op feeds the next 50k
// events off the clock and times one Snapshot and its ApplyLabels. When
// the day runs out a fresh builder warms up again, off the clock.
// snapshot-ms and label-ms are the per-step means of the two.
func BenchmarkSnapshotLabelSteady(b *testing.B) {
	steady.once.Do(func() { steady.tap, steady.err = newSteadyTap() })
	if steady.err != nil {
		b.Fatal(steady.err)
	}
	tap := steady.tap
	var builder *graph.Builder
	next := len(tap.events)
	var snap, label time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if next+steadyEvent > len(tap.events) {
			builder = graph.NewBuilder("isp", steadyDay, tap.suffixes)
			tap.feed(builder, 0, steadyWarm)
			builder.Snapshot().ApplyLabels(tap.src)
			next = steadyWarm
		}
		tap.feed(builder, next, next+steadyEvent)
		next += steadyEvent
		b.StartTimer()
		t0 := time.Now()
		g := builder.Snapshot()
		t1 := time.Now()
		g.ApplyLabels(tap.src)
		snap += t1.Sub(t0)
		label += time.Since(t1)
	}
	b.ReportMetric(snap.Seconds()*1e3/float64(b.N), "snapshot-ms")
	b.ReportMetric(label.Seconds()*1e3/float64(b.N), "label-ms")
}
