package ingest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/logio"
)

// benchBatches generates parsed event batches, so the benchmarks measure
// graph application rather than wire parsing.
func benchBatches(total, batch int) [][]logio.Event {
	rng := rand.New(rand.NewSource(7))
	out := make([][]logio.Event, 0, total/batch)
	for len(out)*batch < total {
		events := make([]logio.Event, batch)
		for i := range events {
			m := rng.Intn(4000)
			d := rng.Intn(15000)
			events[i] = logio.Event{
				Kind:    logio.EventQuery,
				Day:     1,
				Machine: fmt.Sprintf("m%05d", m),
				Domain:  fmt.Sprintf("h%d.zone%d.example.com", d, d%700),
			}
			if i%7 == 0 {
				events[i] = logio.Event{
					Kind:   logio.EventResolution,
					Day:    1,
					Domain: events[i].Domain,
					IPs:    []dnsutil.IPv4{dnsutil.IPv4(rng.Uint32())},
				}
			}
		}
		out = append(out, events)
	}
	return out
}

// benchShardBatches routes the benchBatches stream the way the dispatch
// layer would — by machine/domain hash — and re-batches per shard, so
// each applier feeds only its own shard.
func benchShardBatches(total, batch, shards int) [][][]logio.Event {
	perShard := make([][]logio.Event, shards)
	for _, events := range benchBatches(total, batch) {
		for _, e := range events {
			s := graph.ShardOf(eventKey(&e), shards)
			perShard[s] = append(perShard[s], e)
		}
	}
	out := make([][][]logio.Event, shards)
	for s, evs := range perShard {
		for len(evs) > 0 {
			n := min(batch, len(evs))
			out[s] = append(out[s], evs[:n])
			evs = evs[n:]
		}
	}
	return out
}

// benchConfig configures the apply path the way segugiod does: metrics
// and a live activity log. An apply benchmark without the activity log
// measures a pipeline the daemon never runs (it once advertised 4.3M
// events/s where the daemon, marking activity per event, sustained 0.35M).
func benchConfig(workers int) Config {
	m, _ := newMetrics()
	return Config{Network: "bench", StartDay: 1, Workers: workers, Metrics: m, Activity: activity.NewLog()}
}

// benchRing stands in for the (source, shard) ring a batch is swept
// from: apply reads its source label and its symbol cache.
func benchRing() *eventRing {
	r := newEventRing(1)
	r.source = "bench"
	return r
}

// withSymbols numbers the batches' names the way one segb1 connection
// would: a symbol per distinct string, in order of first appearance,
// machines and domains drawing from the same sequence.
func withSymbols(batches [][]logio.Event) [][]logio.Event {
	syms := make(map[string]uint32)
	sym := func(name string) uint32 {
		if _, ok := syms[name]; !ok {
			syms[name] = uint32(len(syms)) + 1
		}
		return syms[name]
	}
	for _, events := range batches {
		for i := range events {
			e := &events[i]
			if e.Kind == logio.EventQuery {
				e.MachineSym = sym(e.Machine)
			}
			e.DomainSym = sym(e.Domain)
		}
	}
	return batches
}

func benchApply(b *testing.B, in *Ingester, snapshotEvery int) {
	defer in.Shutdown()
	batches, r := benchBatches(1<<20, 256), benchRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.apply(batches[i%len(batches)], r, 0)
		if snapshotEvery > 0 && i%snapshotEvery == snapshotEvery-1 {
			in.Snapshot()
		}
	}
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "events/s")
}

// benchApplySymbols is benchApply for a long-lived segb1 connection in
// steady state: the batches carry symbols and the ring has resolved every
// one of them before the clock starts, so each event costs two table
// loads and an id-level append. allocs/event must read 0.
func benchApplySymbols(b *testing.B, in *Ingester) {
	defer in.Shutdown()
	batches := withSymbols(benchBatches(1<<20, 256))
	r := benchRing()
	for _, batch := range batches {
		in.apply(batch, r, 0)
	}
	in.Snapshot() // fold the warm-up's pending edges, as the daemon's passes do
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.apply(batches[i%len(batches)], r, 0)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(256*b.N), "allocs/event")
}

// BenchmarkIngestApply measures raw event-application throughput: one op
// applies one 256-event batch to the live builder (no snapshots). Gated
// in scripts/bench-allocs.sh (events/s floor).
func BenchmarkIngestApply(b *testing.B) {
	benchApply(b, New(benchConfig(1)), 0)
}

// BenchmarkIngestApplySymbols is BenchmarkIngestApply fed by a segb1
// connection instead of a text one: same events, names numbered. Gated in
// scripts/bench-allocs.sh as a ratio over BenchmarkIngestApply.
func BenchmarkIngestApplySymbols(b *testing.B) {
	benchApplySymbols(b, New(benchConfig(1)))
}

// BenchmarkIngestApplyWithSnapshots is the deployment mix: continuous
// ingestion with a snapshot (merge + publish) every 16 batches, the
// pattern the checkpointer and classify-all path impose on the builder.
func BenchmarkIngestApplyWithSnapshots(b *testing.B) {
	benchApply(b, New(benchConfig(1)), 16)
}

// BenchmarkIngestApplyDurable is BenchmarkIngestApply with the WAL the
// daemon runs under -state: every batch is also encoded and appended to
// the shard's stripe, fsynced at the default cadence.
func BenchmarkIngestApplyDurable(b *testing.B) {
	in, _, err := OpenDurable(benchConfig(1), DurableConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	benchApply(b, in, 0)
}

// BenchmarkIngestApplySymbolsDurable is BenchmarkIngestApplySymbols with
// the WAL on: what one saturated segb1 connection costs the daemon per
// batch under -state.
func BenchmarkIngestApplySymbolsDurable(b *testing.B) {
	in, _, err := OpenDurable(benchConfig(1), DurableConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	benchApplySymbols(b, in)
}

// BenchmarkIngestApplyShards is the sharding scaling curve: N appliers,
// each feeding its own machine-hash shard, measuring aggregate
// graph-apply throughput. One op is one 256-event batch on one shard.
// On a single-core host the curve is flat (appliers serialize on the
// CPU, not on a lock); the CI gate conditions on available parallelism.
func BenchmarkIngestApplyShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			in := New(benchConfig(shards))
			defer in.Shutdown()
			perShard := benchShardBatches(1<<20, 256, shards)

			b.ReportAllocs()
			b.ResetTimer()
			var (
				wg      sync.WaitGroup
				next    atomic.Int64
				applied atomic.Int64
			)
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					batches, r := perShard[s], benchRing()
					if len(batches) == 0 {
						return
					}
					for i := 0; next.Add(1) <= int64(b.N); i++ {
						batch := batches[i%len(batches)]
						in.apply(batch, r, s)
						applied.Add(int64(len(batch)))
					}
				}(s)
			}
			wg.Wait()
			b.ReportMetric(float64(applied.Load())/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkIngestRecover is the wall time of OpenDurable on a crashed
// 4-stripe state: 125k WAL events per stripe and no checkpoint, so each op
// is four concurrent stripe replays plus the seeding of the merged view.
// Each op recovers a fresh copy of the crash image (copied off the clock).
func BenchmarkIngestRecover(b *testing.B) {
	const shards, perShard = 4, 125000
	image := b.TempDir()
	in, _, err := OpenDurable(benchConfig(shards), DurableConfig{Dir: image})
	if err != nil {
		b.Fatal(err)
	}
	r := benchRing()
	for s, batches := range benchShardBatches(shards*perShard, 256, shards) {
		for _, batch := range batches {
			in.apply(batch, r, s)
		}
	}
	// The crash image is the state as it stands now, before Shutdown's
	// checkpoint would make the replay empty.
	crashed := b.TempDir()
	copyTree(b, image, crashed)
	in.Shutdown()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "state")
		copyTree(b, crashed, dir)
		b.StartTimer()
		rec, info, err := OpenDurable(benchConfig(shards), DurableConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if info.ReplayedEvents < shards*perShard*9/10 {
			b.Fatalf("replayed %d events, want about %d", info.ReplayedEvents, shards*perShard)
		}
		rec.Shutdown()
		b.StartTimer()
	}
	b.ReportMetric(float64(shards*perShard)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSnapshotSinceSharded is one classify pass's graph refresh on
// the sharded backend: 4 shards holding an isp-50k-shaped day (50k
// machines, 110k domains, 1M query events), then per op about one pass's
// worth of new events (150k, applied off the clock) and the timed
// SnapshotSince — the shard stage swaps and the day builder's fold and
// snapshot.
func BenchmarkSnapshotSinceSharded(b *testing.B) {
	const (
		shards           = 4
		machines, names  = 50_000, 110_000
		dayEvents, batch = 1_000_000, 256
		passEvents       = 150_000
	)
	machineIDs := make([]string, machines)
	for i := range machineIDs {
		machineIDs[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255)
	}
	domains := make([]string, names)
	for i := range domains {
		domains[i] = fmt.Sprintf("h%d.zone%d.example.com", i, i%7000)
	}
	rng := rand.New(rand.NewSource(11))
	// next routes n query events to their shards and cuts them into
	// batches. Popularity is skewed so repeats (dropped by the folds)
	// occur at a realistic rate.
	next := func(n int) [][][]logio.Event {
		perShard := make([][]logio.Event, shards)
		for i := 0; i < n; i++ {
			m := machineIDs[rng.Intn(machines)]
			d := domains[int(float64(names)*rng.Float64()*rng.Float64())]
			s := graph.ShardOf(m, shards)
			perShard[s] = append(perShard[s], logio.Event{Kind: logio.EventQuery, Day: 1, Machine: m, Domain: d})
		}
		out := make([][][]logio.Event, shards)
		for s, evs := range perShard {
			for len(evs) > 0 {
				k := min(batch, len(evs))
				out[s] = append(out[s], evs[:k])
				evs = evs[k:]
			}
		}
		return out
	}
	in := New(benchConfig(shards))
	defer in.Shutdown()
	r := benchRing()
	applyAll := func(perShard [][][]logio.Event) {
		for s, batches := range perShard {
			for _, bt := range batches {
				in.apply(bt, r, s)
			}
		}
	}
	applyAll(next(dayEvents))
	_, since, _ := in.SnapshotSince(0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		applyAll(next(passEvents))
		b.StartTimer()
		_, v, _ := in.SnapshotSince(since)
		if v == since {
			b.Fatal("the pass's events did not move the version")
		}
		since = v
	}
}

// BenchmarkIngestDayHeap prices a day's graph in live heap: an
// isp-50k-shaped day — 50k machines, 110k domains with one resolution
// each, 2.1M distinct edges each sent twice, all shuffled — applied to
// four shards from one segb1-numbered stream, with a SnapshotSince every
// 1.2M events as the daemon's passes take them. After the day and a last
// pass it reports live-MB, the heap still reachable after runtime.GC
// minus the fixture's own (names and the shuffled event order), and
// B/edge, that over the distinct edges. The activity log is on, as in the
// daemon, so its marks count too. Gated in scripts/bench-allocs.sh.
func BenchmarkIngestDayHeap(b *testing.B) {
	const (
		shards           = 4
		machines, names  = 50_000, 110_000
		edges            = 2_100_000
		passEvery, batch = 1_200_000, 256
	)
	heapNow := func() uint64 {
		// Twice: the second collection also empties the sync.Pool victim
		// caches the first one left.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heapNow()
	machineIDs := make([]string, machines)
	for i := range machineIDs {
		machineIDs[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255)
	}
	domains := make([]string, names)
	for i := range domains {
		domains[i] = fmt.Sprintf("h%d.zone%d.example.com", i, i%7000)
	}
	// Machine m queries 42 distinct domains along a stride coprime to the
	// name count, from a skewed start: 2.1M distinct edges in all. order holds every edge twice plus every
	// domain's resolution (encoded as edges+d), shuffled.
	rng := rand.New(rand.NewSource(44))
	type pair struct{ m, d int32 }
	start := make([]int, machines)
	for m := range start {
		start[m] = int(float64(names) * rng.Float64() * rng.Float64())
	}
	pairs := make([]pair, 0, edges)
	for k := 0; len(pairs) < edges; k++ {
		m := k % machines
		pairs = append(pairs, pair{int32(m), int32((start[m] + k/machines*7919) % names)})
	}
	order := make([]int32, 0, 2*edges+names)
	for i := range pairs {
		order = append(order, int32(i), int32(i))
	}
	for d := 0; d < names; d++ {
		order = append(order, int32(edges+d))
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	fixture := heapNow() - base
	b.ResetTimer()

	var liveMB float64
	for i := 0; i < b.N; i++ {
		in := New(benchConfig(shards))
		rings := make([]*eventRing, shards)
		pend := make([][]logio.Event, shards)
		for s := range rings {
			rings[s] = benchRing()
			pend[s] = make([]logio.Event, 0, batch)
		}
		flush := func(s int) {
			in.apply(pend[s], rings[s], s)
			clear(pend[s])
			pend[s] = pend[s][:0]
		}
		var since uint64
		for k, x := range order {
			var e logio.Event
			if int(x) < edges {
				p := pairs[x]
				e = logio.Event{Kind: logio.EventQuery, Day: 1,
					Machine: machineIDs[p.m], MachineSym: uint32(p.m) + 1,
					Domain: domains[p.d], DomainSym: uint32(machines+p.d) + 1}
			} else {
				d := int(x) - edges
				e = logio.Event{Kind: logio.EventResolution, Day: 1, Domain: domains[d], DomainSym: uint32(machines+d) + 1,
					IPs: []dnsutil.IPv4{dnsutil.IPv4(0x0a000000 + uint32(d))}}
			}
			s := graph.ShardOf(eventKey(&e), shards)
			if pend[s] = append(pend[s], e); len(pend[s]) == batch {
				flush(s)
			}
			if k%passEvery == passEvery-1 {
				_, since, _ = in.SnapshotSince(since)
			}
		}
		for s := range pend {
			if len(pend[s]) > 0 {
				flush(s)
			}
		}
		g, _, _ := in.SnapshotSince(since)
		if g.NumEdges() != edges || g.NumDomains() != names {
			b.Fatalf("day graph has %d edges, %d domains; want %d, %d", g.NumEdges(), g.NumDomains(), edges, names)
		}
		pend, rings, g = nil, nil, nil
		liveMB = float64(heapNow()-base-fixture) / (1 << 20)
		runtime.KeepAlive(in)
		in.Shutdown()
	}
	b.ReportMetric(liveMB, "live-MB")
	b.ReportMetric(liveMB*(1<<20)/edges, "B/edge")
}
