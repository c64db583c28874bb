package ingest

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/graph"
	"segugio/internal/logio"
)

// requireIDsNameDomains checks that a delta's node ids resolve, on the
// graph it came with, to exactly its domain names, in order.
func requireIDsNameDomains(t *testing.T, g *graph.Graph, delta graph.Delta) {
	t.Helper()
	if len(delta.IDs) != len(delta.Domains) {
		t.Fatalf("delta has %d ids for %d names", len(delta.IDs), len(delta.Domains))
	}
	for i, d := range delta.IDs {
		if int(d) >= g.NumDomains() || g.DomainName(d) != delta.Domains[i] {
			t.Fatalf("delta id %d does not name %q on day %d's graph", d, delta.Domains[i], g.Day())
		}
	}
}

func TestSnapshotSinceDeltas(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	defer in.Shutdown()

	if err := in.Consume(strings.NewReader("q\t1\tm1\ta.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first event", func() bool { return m.EventsIngested.Value() == 1 })

	// The first snapshot of a builder has no baseline: any span reaching
	// back before it is inexact.
	_, v1, delta := in.SnapshotSince(0)
	if delta.Exact {
		t.Fatal("span across the first snapshot must be inexact")
	}
	// Asking at the current version is an exact empty delta.
	if _, _, d := in.SnapshotSince(v1); !d.Exact || len(d.Domains) != 0 {
		t.Fatalf("same-version delta = %+v, want exact empty", d)
	}

	// One new observation: the delta names exactly the touched domain.
	if err := in.Consume(strings.NewReader("q\t1\tm2\tb.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second event", func() bool { return m.EventsIngested.Value() == 2 })
	g, v2, delta := in.SnapshotSince(v1)
	if !delta.Exact || len(delta.Domains) != 1 || delta.Domains[0] != "b.example.com" {
		t.Fatalf("delta = %+v, want exactly [b.example.com]", delta)
	}
	requireIDsNameDomains(t, g, delta)

	// Spans accumulate across intermediate snapshots: ingest two batches
	// with a snapshot between, then ask from v2 — both batches' domains
	// must be reported.
	if err := in.Consume(strings.NewReader("q\t1\tm1\tc.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "third event", func() bool { return m.EventsIngested.Value() == 3 })
	in.Snapshot()
	if err := in.Consume(strings.NewReader("r\t1\td.example.com\t10.0.0.1\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fourth event", func() bool { return m.EventsIngested.Value() == 4 })
	g, v3, delta := in.SnapshotSince(v2)
	if !delta.Exact {
		t.Fatalf("multi-step delta inexact: %+v", delta)
	}
	requireIDsNameDomains(t, g, delta)
	got := map[string]bool{}
	for _, d := range delta.Domains {
		got[d] = true
	}
	// m1 gained an edge, so every domain m1 queries is dirty too.
	for _, want := range []string{"a.example.com", "c.example.com", "d.example.com"} {
		if !got[want] {
			t.Fatalf("delta %v missing %s", delta.Domains, want)
		}
	}
	if got["b.example.com"] {
		t.Fatalf("delta %v over-reports untouched b.example.com", delta.Domains)
	}

	// The finished-day handover: ids recorded on day 1 resolve on day 1's
	// last graph, not on the live day-2 one.
	if err := in.Consume(strings.NewReader("q\t1\tm3\te.example.com\nq\t2\tm1\tf.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rotation", func() bool { return m.Rotations.Value() == 1 })
	g, _, delta = in.SnapshotSince(v3)
	if g.Day() != 1 || !delta.Exact || !slices.Contains(delta.Domains, "e.example.com") {
		t.Fatalf("handover = day %d, delta %+v; want day 1's last graph with e.example.com", g.Day(), delta)
	}
	requireIDsNameDomains(t, g, delta)
}

// TestDeltaRing pins the ring's span arithmetic: which entries a span
// unions, when it degrades to inexact, and what trimming keeps.
func TestDeltaRing(t *testing.T) {
	ids := func(ds ...int32) []int32 { return ds }
	entry := func(from, to uint64, ds ...int32) deltaEntry {
		return deltaEntry{from: from, to: to, domains: ds}
	}
	poison := func(v uint64) deltaEntry { return deltaEntry{from: v, to: v, inexact: true} }
	// long is more entries than the ring keeps, one domain each.
	long := func(n int) []deltaEntry {
		out := make([]deltaEntry, n)
		for i := range out {
			out[i] = entry(uint64(i), uint64(i+1), int32(i))
		}
		return out
	}
	wide := make([]int32, ringMaxNames/2)
	for i := range wide {
		wide[i] = int32(i)
	}

	for _, tc := range []struct {
		name      string
		push      []deltaEntry
		v, cur    uint64
		want      []int32
		wantExact bool
	}{
		{name: "same version", push: []deltaEntry{entry(0, 1, 4)}, v: 1, cur: 1, wantExact: true},
		{
			name: "union without duplicates",
			push: []deltaEntry{entry(0, 1, 1, 2), entry(1, 2, 2, 3), entry(2, 3, 1, 3, 9)},
			v:    0, cur: 3, want: ids(1, 2, 3, 9), wantExact: true,
		},
		{
			name: "entries newer than cur are skipped",
			push: []deltaEntry{entry(0, 1, 1), entry(1, 2, 2), entry(2, 3, 3)},
			v:    1, cur: 2, want: ids(2), wantExact: true,
		},
		{
			name: "span older than history",
			push: []deltaEntry{entry(5, 6, 1), entry(6, 7, 2)},
			v:    3, cur: 7,
		},
		{
			name: "poison entry inside the span",
			push: []deltaEntry{entry(0, 1, 1), poison(2), entry(2, 3, 5)},
			v:    0, cur: 3,
		},
		{
			name: "span starting at the poison entry",
			push: []deltaEntry{entry(0, 1, 1), poison(2), entry(2, 3, 5)},
			v:    2, cur: 3, want: ids(5), wantExact: true,
		},
		{
			name: "entry trim keeps the newest",
			push: long(ringMaxEntries + 10),
			v:    ringMaxEntries + 7, cur: ringMaxEntries + 10,
			want: ids(ringMaxEntries+7, ringMaxEntries+8, ringMaxEntries+9), wantExact: true,
		},
		{
			name: "entry trim drops the oldest",
			push: long(ringMaxEntries + 10),
			v:    5, cur: ringMaxEntries + 10,
		},
		{
			name: "name trim keeps the newest",
			push: []deltaEntry{entry(0, 1, wide...), entry(1, 2, wide...), entry(2, 3, 7), entry(3, 4, wide...)},
			v:    2, cur: 4, want: wide, wantExact: true,
		},
		{
			name: "name trim drops the oldest",
			push: []deltaEntry{entry(0, 1, wide...), entry(1, 2, wide...), entry(2, 3, 7), entry(3, 4, wide...)},
			v:    0, cur: 4,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r deltaRing
			for _, e := range tc.push {
				r.push(e)
			}
			if len(r.entries) > ringMaxEntries || r.names > ringMaxNames {
				t.Fatalf("ring holds %d entries and %d names, bounds are %d and %d", len(r.entries), r.names, ringMaxEntries, ringMaxNames)
			}
			if last := tc.push[len(tc.push)-1]; r.entries[len(r.entries)-1].to != last.to {
				t.Fatalf("newest entry ends at %d, want %d", r.entries[len(r.entries)-1].to, last.to)
			}
			// Ask twice: the id set of one call must not leak into the next.
			for range 2 {
				got, exact := r.since(tc.v, tc.cur)
				if exact != tc.wantExact || !slices.Equal(got, tc.want) {
					t.Fatalf("since(%d, %d) = %v (exact=%v), want %v (exact=%v)", tc.v, tc.cur, got, exact, tc.want, tc.wantExact)
				}
			}
		})
	}
}

func TestSnapshotSinceRotationIsInexact(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	defer in.Shutdown()

	if err := in.Consume(strings.NewReader("q\t1\tm1\ta.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "day-1 event", func() bool { return m.EventsIngested.Value() == 1 })
	_, v1, _ := in.SnapshotSince(0)

	// Crossing a day boundary rotates the epoch. A caller still on day 1
	// is first handed the finished day, at a version of its own ...
	if err := in.Consume(strings.NewReader("q\t2\tm1\tb.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rotation", func() bool { return m.Rotations.Value() == 1 })
	g, vFinal, delta := in.SnapshotSince(v1)
	if g.Day() != 1 || vFinal <= v1 || !delta.Exact || len(delta.Domains) != 0 {
		t.Fatalf("first call after the rotation = day %d, version %d (was %d), delta %+v; want day 1's last graph with an exact empty delta",
			g.Day(), vFinal, v1, delta)
	}
	// ... and then crosses into day 2: per-domain deltas from the old day
	// are meaningless there and the span must degrade to inexact.
	g, _, delta = in.SnapshotSince(vFinal)
	if delta.Exact {
		t.Fatalf("delta across rotation = %+v, want inexact", delta)
	}
	if g.Day() != 2 {
		t.Fatalf("day = %d, want 2", g.Day())
	}
	if live, _ := in.Snapshot(); live != g {
		t.Fatal("Snapshot and the post-rotation SnapshotSince disagree on the live graph")
	}
}

// TestSnapshotSinceHandsOverFinishedDay pins the end-of-day handoff: what
// is applied after a reader's last snapshot and before the rotation is
// reported as an exact delta on the finished day's own graph, until the
// reader comes back at that graph's version; Snapshot keeps serving the live epoch throughout; and an ingester
// nobody ever asked for a delta keeps no finished day at all.
func TestSnapshotSinceHandsOverFinishedDay(t *testing.T) {
	m, _ := newMetrics()
	var (
		mu       sync.Mutex
		prepared = make(map[*graph.Graph]int) // the rotating worker and a reader both want the finished day labeled
	)
	in := New(Config{Network: "net", StartDay: 1, Workers: 2, Metrics: m,
		PrepareSnapshot: func(g *graph.Graph) {
			mu.Lock()
			prepared[g]++
			mu.Unlock()
			g.ApplyLabels(graph.LabelSources{AsOf: g.Day()})
		}})
	defer in.Shutdown()
	feedLines := func(want int64, lines string) {
		t.Helper()
		if err := in.Consume(strings.NewReader(lines)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "events applied", func() bool { return m.EventsIngested.Value() == want })
	}

	feedLines(1, "q\t1\tm1\ta.example.com\n")
	in.Snapshot()
	feedLines(2, "q\t2\tm1\tb.example.com\n") // rotates; no SnapshotSince so far
	in.deltaMu.Lock()
	kept := in.finished
	in.deltaMu.Unlock()
	if kept != nil {
		t.Fatal("a finished day is kept although nobody reads deltas")
	}

	_, v, _ := in.SnapshotSince(0)
	feedLines(4, "q\t2\tm2\tlate.example.com\nr\t2\tlate.example.com\t10.0.0.9\n")
	feedLines(5, "q\t3\tm1\tc.example.com\n") // rotates day 2 out
	if live, _ := in.Snapshot(); live.Day() != 3 {
		t.Fatalf("Snapshot serves day %d after the rotation, want the live day 3", live.Day())
	}
	g, vFinal, delta := in.SnapshotSince(v)
	if g.Day() != 2 || !g.Labeled() {
		t.Fatalf("finished day: day %d, labeled %v; want day 2's last graph, labeled", g.Day(), g.Labeled())
	}
	if !delta.Exact || len(delta.Domains) != 1 || delta.Domains[0] != "late.example.com" {
		t.Fatalf("finished day's delta = %+v, want exactly [late.example.com]", delta)
	}
	if d, ok := g.DomainIndex("late.example.com"); !ok || g.DomainDegree(d) != 1 || len(g.DomainIPs(d)) != 1 {
		t.Fatal("finished day's graph lacks the late domain's edge or address")
	}
	// A caller whose pass over it did not complete comes back with its old
	// version and must find the same graph and delta waiting.
	if again, vAgain, dAgain := in.SnapshotSince(v); again != g || vAgain != vFinal || !slices.Equal(dAgain.Domains, delta.Domains) {
		t.Fatalf("retry with the old version = day %d at %d, delta %+v; want the finished day again", again.Day(), vAgain, dAgain)
	}
	if g2, _, d2 := in.SnapshotSince(vFinal); g2.Day() != 3 || d2.Exact {
		t.Fatalf("call after a completed pass = day %d, delta %+v; want the live day 3, inexact", g2.Day(), d2)
	}
	if g3, _, _ := in.SnapshotSince(v); g3.Day() != 3 {
		t.Fatalf("an old version after the handover completed = day %d, want the live day 3", g3.Day())
	}
	in.Shutdown() // the rotating worker is done with its own prepare call
	mu.Lock()
	defer mu.Unlock()
	for pg, n := range prepared {
		if n != 1 {
			t.Fatalf("PrepareSnapshot ran %d times on the day-%d graph, want once", n, pg.Day())
		}
	}
}

// TestSnapshotSinceWaitingOutARotationGetsTheFinishedDay parks a
// rotation inside its fold (a shard lock held) and calls SnapshotSince
// meanwhile: the call waits for the epoch lock and must come back with
// the finished day, not the new one. Looking the finished day up before
// the wait handed the new day over and left the old day's last events
// unclassified for good.
func TestSnapshotSinceWaitingOutARotationGetsTheFinishedDay(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	defer in.Shutdown()
	if err := in.Consume(strings.NewReader("q\t1\tm1\ta.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "day 1 applied", func() bool { return m.EventsIngested.Value() == 1 })
	_, since, _ := in.SnapshotSince(0)
	if err := in.Consume(strings.NewReader("q\t1\tm2\tlate.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the late event applied", func() bool { return m.EventsIngested.Value() == 2 })

	sh := in.shards[0]
	sh.mu.Lock()
	if err := in.Consume(strings.NewReader("q\t2\tm1\tb.example.com\n")); err != nil {
		sh.mu.Unlock()
		t.Fatal(err)
	}
	waitFor(t, "the rotation holds the epoch lock", func() bool {
		if in.epochMu.TryRLock() {
			in.epochMu.RUnlock()
			return false
		}
		return true
	})
	type result struct {
		g     *graph.Graph
		delta graph.Delta
	}
	got := make(chan result, 1)
	go func() {
		g, _, delta := in.SnapshotSince(since)
		got <- result{g, delta}
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the epoch lock
	sh.mu.Unlock()
	r := <-got
	if r.g.Day() != 1 || !r.delta.Exact || !slices.Equal(r.delta.Domains, []string{"late.example.com"}) {
		t.Fatalf("SnapshotSince across the rotation = day %d, delta %+v; want day 1's last graph with [late.example.com]", r.g.Day(), r.delta)
	}
}

// TestCheckpointFoldReportedToEarlierSnapshot: a checkpoint folds what
// the shards staged, as a snapshot does, but serves no one. Parked at
// shard 0's lock after it started, it lets a worker stage a query on
// shard 1 and then takes that query in its fold. A consumer holding the
// snapshot from before the checkpoint must be told of the query's domain
// by its next SnapshotSince, although that call's own fold finds nothing
// new.
func TestCheckpointFoldReportedToEarlierSnapshot(t *testing.T) {
	in, m, _ := openShards(t, t.TempDir(), 2)
	defer in.Shutdown()
	machineOn := func(shard int) string {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("m%d", i); graph.ShardOf(name, 2) == shard {
				return name
			}
		}
	}
	feed(t, in, m, []logio.Event{{Kind: logio.EventQuery, Day: 5, Machine: machineOn(1), Domain: "a.example.com"}})
	_, since, _ := in.SnapshotSince(0)

	sh := in.shards[0]
	sh.mu.Lock()
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()
	ckpt := make(chan error, 1)
	go func() { ckpt <- in.Checkpoint() }()
	// The workers are idle, so a reader of the epoch lock is the
	// checkpoint; the sleep lets it on to shard 0's lock.
	waitFor(t, "the checkpoint holds the epoch lock", func() bool {
		if in.epochMu.TryLock() {
			in.epochMu.Unlock()
			return false
		}
		return true
	})
	time.Sleep(20 * time.Millisecond)
	feed(t, in, m, []logio.Event{{Kind: logio.EventQuery, Day: 5, Machine: machineOn(1), Domain: "x.example.com"}})
	sh.mu.Unlock()
	locked = false
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}

	g, _, delta := in.SnapshotSince(since)
	requireIDsNameDomains(t, g, delta)
	if !delta.Exact || !slices.Contains(delta.Domains, "x.example.com") {
		t.Fatalf("delta since the snapshot before the checkpoint = %+v, want x.example.com in it", delta)
	}
}

// TestConcurrentIngestAndClassify is the -race check that streaming
// appends never mutate a published snapshot: one goroutine ingests
// continuously while another loops Snapshot + a classification-shaped
// read pass (labels, adjacency walks), and a snapshot captured early
// must look identical at the end.
func TestConcurrentIngestAndClassify(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{
		Network: "net", StartDay: 1, Workers: 4, QueueDepth: 1 << 14, Metrics: m,
		PrepareSnapshot: func(g *graph.Graph) {
			g.ApplyLabels(graph.LabelSources{AsOf: g.Day()})
		},
	})
	defer in.Shutdown()

	const total = 20000
	lines := 0
	var seed, rest strings.Builder
	for i := 0; i < total; i++ {
		out := &rest
		if i < total/10 {
			out = &seed
		}
		fmt.Fprintf(out, "q\t1\tm%03d\th%d.zone%d.example.com\n", i%80, i%500, i%25)
		lines++
		if i%7 == 0 {
			fmt.Fprintf(out, "r\t1\th%d.zone%d.example.com\t10.%d.%d.%d\n", i%500, i%25, i%200, i%251, i%249)
			lines++
		}
	}

	// Seed enough state for a meaningful early snapshot.
	if err := in.Consume(strings.NewReader(seed.String())); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seed applied", func() bool { return m.EventsIngested.Value() > 100 })
	early, earlyVer := in.Snapshot()
	earlyMachines, earlyDomains, earlyEdges := early.NumMachines(), early.NumDomains(), early.NumEdges()
	earlyDegrees := make([]int, earlyDomains)
	for d := range earlyDegrees {
		earlyDegrees[d] = early.DomainDegree(int32(d))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := in.Consume(strings.NewReader(rest.String())); err != nil {
			t.Error(err)
		}
		stop.Store(true)
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			g, _ := in.Snapshot()
			if !g.Labeled() {
				t.Error("snapshot not labeled")
				return
			}
			// Classification-shaped read load: walk both adjacency sides
			// and the per-domain annotations of the newest snapshot.
			sum := 0
			for d := int32(0); int(d) < g.NumDomains(); d++ {
				sum += len(g.MachinesOf(d)) + len(g.DomainIPs(d))
				_ = g.DomainLabel(d)
			}
			for mm := int32(0); int(mm) < g.NumMachines(); mm++ {
				sum += len(g.DomainsOf(mm))
			}
			_ = sum
		}
	}()
	wg.Wait()
	waitFor(t, "all events applied or dropped", func() bool {
		return m.EventsIngested.Value()+m.EventsDropped.Value() == int64(lines)
	})

	// The early snapshot must be byte-for-byte what it was: later appends
	// land in the builder, never in published graphs.
	if early.NumMachines() != earlyMachines || early.NumDomains() != earlyDomains || early.NumEdges() != earlyEdges {
		t.Fatalf("early snapshot mutated: (%d,%d,%d) != (%d,%d,%d)",
			early.NumMachines(), early.NumDomains(), early.NumEdges(),
			earlyMachines, earlyDomains, earlyEdges)
	}
	for d := range earlyDegrees {
		if early.DomainDegree(int32(d)) != earlyDegrees[d] {
			t.Fatalf("early snapshot domain %d degree changed: %d != %d",
				d, early.DomainDegree(int32(d)), earlyDegrees[d])
		}
	}
	final, finalVer := in.Snapshot()
	if finalVer == earlyVer {
		t.Fatal("version did not advance")
	}
	if final.NumEdges() < earlyEdges {
		t.Fatalf("final snapshot lost edges: %d < %d", final.NumEdges(), earlyEdges)
	}
}
