package ingest

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/logio"
)

// requireFinishedDay checks that g is of the finished day and holds
// domain with one edge and addrs addresses.
func requireFinishedDay(t *testing.T, g *graph.Graph, day int, domain string, addrs int) {
	t.Helper()
	if g.Day() != day {
		t.Fatalf("SnapshotSince handed out day %d, want the finished day %d", g.Day(), day)
	}
	if d, ok := g.DomainIndex(domain); !ok || g.DomainDegree(d) != 1 || len(g.DomainIPs(d)) != addrs {
		t.Fatalf("the finished day's graph lacks %s's edge or its %d addresses", domain, addrs)
	}
}

// TestSnapshotSinceDeltas: within a day SnapshotSince is Snapshot — the
// live graph at its version, the cached one while nothing moved — and the
// Delta beside it is always the zero value, not exact and naming nothing,
// so a caller that reads it (the end-to-end benchmark's traced replay)
// classifies the whole graph.
func TestSnapshotSinceDeltas(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 2, Metrics: m})
	defer in.Shutdown()

	if err := in.Consume(strings.NewReader("q\t1\tm1\ta.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first event", func() bool { return m.EventsIngested.Value() == 1 })
	g1, v1, delta := in.SnapshotSince(0)
	if delta.Exact || delta.Domains != nil {
		t.Fatalf("delta = %+v, want the zero Delta", delta)
	}
	if again, v, d := in.SnapshotSince(v1); again != g1 || v != v1 || d.Exact || d.Domains != nil {
		t.Fatalf("same-version call = version %d, delta %+v; want the cached graph at %d and the zero Delta", v, d, v1)
	}

	if err := in.Consume(strings.NewReader("q\t1\tm2\tb.example.com\nr\t1\tb.example.com\t10.0.0.2\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second batch", func() bool { return m.EventsIngested.Value() == 3 })
	g2, v2, delta := in.SnapshotSince(v1)
	if v2 <= v1 || delta.Exact || delta.Domains != nil {
		t.Fatalf("after new events: version %d (was %d), delta %+v; want a later version and the zero Delta", v2, v1, delta)
	}
	if d, ok := g2.DomainIndex("b.example.com"); !ok || g2.DomainDegree(d) != 1 || len(g2.DomainIPs(d)) != 1 {
		t.Fatal("the snapshot lacks b.example.com's edge or address")
	}
	if live, v := in.Snapshot(); live != g2 || v != v2 {
		t.Fatal("Snapshot and SnapshotSince disagree on the live graph")
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
	g, vFinal, _ := in.SnapshotSince(v1)
	if g.Day() != 1 || vFinal <= v1 {
		t.Fatalf("first call after the rotation = day %d, version %d (was %d); want day 1's last graph at a later version",
			g.Day(), vFinal, v1)
	}
	// ... and then crosses into day 2.
	g, _, _ = in.SnapshotSince(vFinal)
	if g.Day() != 2 {
		t.Fatalf("day = %d, want 2", g.Day())
	}
	if live, _ := in.Snapshot(); live != g {
		t.Fatal("Snapshot and the post-rotation SnapshotSince disagree on the live graph")
	}
}

// TestSnapshotSinceHandsOverFinishedDay pins the end-of-day handoff: what
// is applied after a reader's last snapshot and before the rotation is on
// the finished day's own graph, which the reader is handed until it comes
// back at that graph's version; Snapshot keeps serving the live epoch
// throughout; and an ingester nobody ever called SnapshotSince on keeps no
// finished day at all.
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
	if kept := in.finished.Load(); kept != nil {
		t.Fatal("a finished day is kept although nobody calls SnapshotSince")
	}

	_, v, _ := in.SnapshotSince(0)
	feedLines(4, "q\t2\tm2\tlate.example.com\nr\t2\tlate.example.com\t10.0.0.9\n")
	feedLines(5, "q\t3\tm1\tc.example.com\n") // rotates day 2 out
	if live, _ := in.Snapshot(); live.Day() != 3 {
		t.Fatalf("Snapshot serves day %d after the rotation, want the live day 3", live.Day())
	}
	g, vFinal, _ := in.SnapshotSince(v)
	if !g.Labeled() {
		t.Fatal("the finished day's graph is not labeled")
	}
	requireFinishedDay(t, g, 2, "late.example.com", 1)
	// A caller whose pass over it did not complete comes back with its old
	// version and must find the same graph waiting.
	if again, vAgain, _ := in.SnapshotSince(v); again != g || vAgain != vFinal {
		t.Fatalf("retry with the old version = day %d at %d; want the finished day again at %d", again.Day(), vAgain, vFinal)
	}
	if g2, _, _ := in.SnapshotSince(vFinal); g2.Day() != 3 {
		t.Fatalf("call after a completed pass = day %d; want the live day 3", g2.Day())
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
	got := make(chan *graph.Graph, 1)
	go func() {
		g, _, _ := in.SnapshotSince(since)
		got <- g
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the epoch lock
	sh.mu.Unlock()
	g := <-got
	requireFinishedDay(t, g, 1, "late.example.com", 0)
	if again, _, _ := in.SnapshotSince(since); again != g {
		t.Fatalf("retry with the old version = day %d; want the finished day again", again.Day())
	}
}

// TestCheckpointFoldReportedToEarlierSnapshot: a checkpoint folds what
// the shards staged, as a snapshot does, but serves no one. Parked at
// shard 0's lock after it started, it lets a worker stage a query on
// shard 1 and then takes that query in its fold. A consumer holding the
// snapshot from before the checkpoint must find the query's domain in its
// next SnapshotSince, although that call's own fold finds nothing new.
func TestCheckpointFoldReportedToEarlierSnapshot(t *testing.T) {
	dir := t.TempDir()
	in, m, _ := openShards(t, dir, 2)
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
	staged := in.Version()
	sh.mu.Unlock()
	locked = false
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	// The checkpoint took the query, so its version must cover it.
	b, ckptVersion, _, err := readCheckpoint(genCheckpoint(dir), Config{Suffixes: dnsutil.DefaultSuffixList()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Snapshot().DomainIndex("x.example.com"); !ok || ckptVersion < staged {
		t.Fatalf("checkpoint at version %d holds x.example.com: %v; want it, at %d or later", ckptVersion, ok, staged)
	}

	g, v, _ := in.SnapshotSince(since)
	if d, ok := g.DomainIndex("x.example.com"); !ok || g.DomainDegree(d) != 1 || v <= since {
		t.Fatalf("the snapshot after the checkpoint, at version %d (since %d), lacks x.example.com's edge", v, since)
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
