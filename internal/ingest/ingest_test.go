package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/logio"
	"segugio/internal/metrics"
)

func newMetrics() (*Metrics, *metrics.Registry) {
	r := metrics.NewRegistry()
	return &Metrics{
		EventsIngested:    r.NewCounter("ingested_total", "", ""),
		EventsDropped:     r.NewCounter("dropped_total", "", ""),
		EventsStale:       r.NewCounter("stale_total", "", ""),
		ParseErrors:       r.NewCounter("parse_errors_total", "", ""),
		Rotations:         r.NewCounter("rotations_total", "", ""),
		GraphMachines:     r.NewGauge("graph_machines", "", ""),
		GraphDomains:      r.NewGauge("graph_domains", "", ""),
		GraphObservations: r.NewGauge("graph_observations", "", ""),
		Panics:            r.NewCounter("panics_total", "", ""),
		TailReopens:       r.NewCounter("tail_reopens_total", "", ""),
		WALAppendFailures: r.NewCounter("wal_append_failures_total", "", ""),
	}, r
}

// stream renders events as the wire format.
func stream(t *testing.T, events []logio.Event) string {
	t.Helper()
	var b strings.Builder
	for _, e := range events {
		if err := logio.WriteEvent(&b, e); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestIngestBuildsSameGraphAsBatch(t *testing.T) {
	sl := dnsutil.DefaultSuffixList()
	var events []logio.Event
	batch := graph.NewBuilder("net", 3, sl)
	for i := 0; i < 3000; i++ {
		machine := fmt.Sprintf("m%03d", i%70)
		domain := fmt.Sprintf("h%d.zone%d.com", i%40, i%15)
		events = append(events, logio.Event{Kind: logio.EventQuery, Day: 3, Machine: machine, Domain: domain})
		batch.AddQuery(machine, domain)
		if i%5 == 0 {
			ip := dnsutil.MakeIPv4(10, 0, byte(i%7), byte(i%90))
			events = append(events, logio.Event{Kind: logio.EventResolution, Day: 3, Domain: domain, IPs: []dnsutil.IPv4{ip}})
			batch.AddResolution(domain, ip)
		}
	}
	want := batch.Build()

	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 3, Workers: 4, Metrics: m})
	if err := in.Consume(strings.NewReader(stream(t, events))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all events applied", func() bool {
		return m.EventsIngested.Value() == int64(len(events))
	})
	got, v1 := in.Snapshot()
	in.Shutdown()

	if got.NumMachines() != want.NumMachines() || got.NumDomains() != want.NumDomains() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("sizes: got (%d,%d,%d), want (%d,%d,%d)",
			got.NumMachines(), got.NumDomains(), got.NumEdges(),
			want.NumMachines(), want.NumDomains(), want.NumEdges())
	}
	for d := int32(0); int(d) < want.NumDomains(); d++ {
		name := want.DomainName(d)
		gd, ok := got.DomainIndex(name)
		if !ok {
			t.Fatalf("domain %q missing", name)
		}
		if got.DomainDegree(gd) != want.DomainDegree(d) {
			t.Fatalf("domain %q degree %d != %d", name, got.DomainDegree(gd), want.DomainDegree(d))
		}
		if len(got.DomainIPs(gd)) != len(want.DomainIPs(d)) {
			t.Fatalf("domain %q ips %d != %d", name, len(got.DomainIPs(gd)), len(want.DomainIPs(d)))
		}
	}
	if m.EventsDropped.Value() != 0 || m.EventsStale.Value() != 0 {
		t.Fatalf("unexpected drops %d / stale %d", m.EventsDropped.Value(), m.EventsStale.Value())
	}
	_ = v1
}

func TestSnapshotCaching(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 2, Metrics: m})
	defer in.Shutdown()

	if err := in.Consume(strings.NewReader("q\t1\tm1\ta.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "event applied", func() bool { return m.EventsIngested.Value() == 1 })
	g1, v1 := in.Snapshot()
	g2, v2 := in.Snapshot()
	if g1 != g2 || v1 != v2 {
		t.Fatal("unchanged graph must return the cached snapshot")
	}
	if err := in.Consume(strings.NewReader("q\t1\tm2\tb.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second event applied", func() bool { return m.EventsIngested.Value() == 2 })
	g3, v3 := in.Snapshot()
	if g3 == g1 || v3 == v1 {
		t.Fatal("changed graph must rebuild the snapshot")
	}
	if g3.NumMachines() != 2 {
		t.Fatalf("machines = %d", g3.NumMachines())
	}
}

func TestPrepareSnapshotHook(t *testing.T) {
	prepared := 0
	in := New(Config{
		Network: "net", StartDay: 1, Workers: 1,
		PrepareSnapshot: func(g *graph.Graph) {
			prepared++
			g.ApplyLabels(graph.LabelSources{AsOf: 1})
		},
	})
	defer in.Shutdown()
	g, _ := in.Snapshot()
	if !g.Labeled() {
		t.Fatal("PrepareSnapshot must have labeled the snapshot")
	}
	in.Snapshot()
	if prepared != 1 {
		t.Fatalf("prepare ran %d times for one version", prepared)
	}
}

func TestEpochRotation(t *testing.T) {
	m, _ := newMetrics()
	var mu sync.Mutex
	var rotatedDays []int
	var finals []*graph.Graph
	act := activity.NewLog()
	in := New(Config{
		Network: "net", StartDay: 10, Workers: 1, Activity: act,
		OnRotate: func(day int, final *graph.Graph) {
			mu.Lock()
			rotatedDays = append(rotatedDays, day)
			finals = append(finals, final)
			mu.Unlock()
		},
		Metrics: m,
	})

	input := "q\t10\tm1\ta.example.com\n" +
		"q\t10\tm2\tb.example.com\n" +
		"q\t11\tm1\tc.example.com\n" + // rotates 10 -> 11
		"q\t9\tm9\told.example.com\n" + // stale: day 9 < 11
		"q\t11\tm3\td.example.com\n"
	if err := in.Consume(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rotation applied", func() bool {
		return m.Rotations.Value() == 1 && m.EventsIngested.Value() == 4
	})
	in.Shutdown()

	if in.Day() != 11 {
		t.Fatalf("day = %d, want 11", in.Day())
	}
	if m.EventsStale.Value() != 1 {
		t.Fatalf("stale = %d, want 1", m.EventsStale.Value())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rotatedDays) != 1 || rotatedDays[0] != 10 {
		t.Fatalf("rotated days = %v", rotatedDays)
	}
	if finals[0].NumMachines() != 2 || finals[0].NumDomains() != 2 {
		t.Fatalf("final graph of day 10: %d machines, %d domains", finals[0].NumMachines(), finals[0].NumDomains())
	}
	g, _ := in.Snapshot()
	if g.Day() != 11 || g.NumDomains() != 2 {
		t.Fatalf("live graph: day %d, %d domains", g.Day(), g.NumDomains())
	}
	// The query marks landed in the activity log.
	if act.DomainActiveDays("c.example.com", 11, 11) != 1 {
		t.Fatal("activity mark missing for day 11")
	}
}

// TestShutdownReleasesBlockedSource: a full ring blocks its source (the
// default policy) for as long as the worker is stalled, and Shutdown is
// what ends the wait — the events still unpublished are counted as dropped
// instead of wedging the Consume loop.
func TestShutdownReleasesBlockedSource(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, QueueDepth: 1, Metrics: m})

	// Stall the single worker by holding the shard's builder lock.
	in.shards[0].mu.Lock()
	var b strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "q\t1\tm%d\td%d.example.com\n", i, i)
	}
	consumed := make(chan error, 1)
	go func() { consumed <- in.Consume(strings.NewReader(b.String())) }()
	waitFor(t, "the ring to fill", func() bool { return in.QueueDepths()[0] > 0 })
	select {
	case <-consumed:
		t.Fatal("source did not block on a stalled worker")
	case <-time.After(20 * time.Millisecond):
	}
	stopped := make(chan struct{})
	go func() {
		in.Shutdown()
		close(stopped)
	}()
	select {
	case err := <-consumed:
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("Consume returned %v, want ErrShuttingDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not release the blocked source")
	}
	in.shards[0].mu.Unlock()
	<-stopped
	// The event the source was waiting with is dropped and counted; the
	// ones queued ahead of it are applied by the draining worker; the rest
	// of the stream was never read.
	if m.EventsDropped.Value() != 1 {
		t.Fatalf("dropped = %d, want the one event the source was waiting with", m.EventsDropped.Value())
	}
	if n := m.EventsIngested.Value(); n == 0 || n > 3 {
		t.Fatalf("ingested = %d, want the few events queued before the stall", n)
	}
}

func TestConcurrentConsumers(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 4, Metrics: m})

	const streams, perStream = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var b strings.Builder
			for i := 0; i < perStream; i++ {
				fmt.Fprintf(&b, "q\t1\tm%d-%d\tshared%d.example.com\n", s, i, i%30)
			}
			if err := in.Consume(strings.NewReader(b.String())); err != nil {
				t.Errorf("stream %d: %v", s, err)
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, "all streams applied", func() bool {
		return m.EventsIngested.Value()+m.EventsDropped.Value() == streams*perStream
	})
	// Snapshot while more events trickle in concurrently.
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		in.Consume(strings.NewReader("q\t1\tlate\tlate.example.com\n"))
	}()
	g, _ := in.Snapshot()
	if g.NumDomains() == 0 {
		t.Fatal("empty snapshot")
	}
	wg2.Wait()
	in.Shutdown()
}

func TestShutdownDrainsQueues(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 2, QueueDepth: 10000, Metrics: m})
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "q\t1\tm%d\td%d.example.com\n", i%50, i%80)
	}
	if err := in.Consume(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	in.Shutdown() // must apply everything still queued
	if got := m.EventsIngested.Value() + m.EventsDropped.Value(); got != 2000 {
		t.Fatalf("after shutdown: ingested+dropped = %d, want 2000", got)
	}
	// Consume after shutdown aborts.
	if err := in.Consume(strings.NewReader("q\t1\tx\ty.example.com\n")); err == nil {
		t.Fatal("consume after shutdown must fail")
	}
	in.Shutdown() // idempotent
}

func TestConsumeMalformedStream(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	defer in.Shutdown()
	err := in.Consume(strings.NewReader("q\t1\tm1\ta.example.com\nGARBAGE\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered parse error, got %v", err)
	}
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d", m.ParseErrors.Value())
	}
}

// startTail tails path into a fresh ingester. The returned stop cancels
// the tail, requires that it ended cleanly, and returns the final graph.
func startTail(t *testing.T, path string) (m *Metrics, stop func() *graph.Graph) {
	t.Helper()
	m, _ = newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- in.NewTailer(path, 5*time.Millisecond).Run(ctx) }()
	return m, func() *graph.Graph {
		t.Helper()
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("tail ended with %v, want a clean stop", err)
		}
		in.Shutdown()
		g, _ := in.Snapshot()
		return g
	}
}

func TestTailFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "q\t1\tm1\ta.example.com\n")
	f.Sync()
	m, stop := startTail(t, path)

	waitFor(t, "first event", func() bool { return m.EventsIngested.Value() == 1 })
	// Append while tailing.
	io.WriteString(f, "q\t1\tm2\tb.example.com\n")
	f.Sync()
	waitFor(t, "appended event", func() bool { return m.EventsIngested.Value() == 2 })
	f.Close()

	if g := stop(); g.NumMachines() != 2 {
		t.Fatalf("machines = %d", g.NumMachines())
	}
}

// TestTailFileRotation swaps a new file in at the tailed path (the
// logrotate move-and-recreate dance); the tail must notice the inode
// change and read the fresh file from the start.
func TestTailFileRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	if err := os.WriteFile(path, []byte("q\t1\tm1\ta.example.com\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, stop := startTail(t, path)
	waitFor(t, "pre-rotation event", func() bool { return m.EventsIngested.Value() == 1 })

	// Rotate: the old file moves aside, a new one appears at the path.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("q\t1\tm2\tb.example.com\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-rotation event", func() bool { return m.EventsIngested.Value() == 2 })
	if m.TailReopens.Value() != 1 {
		t.Fatalf("tail reopens = %d, want 1", m.TailReopens.Value())
	}

	if _, ok := stop().DomainIndex("b.example.com"); !ok {
		t.Fatal("rotated-in file's event missing")
	}
}

// TestTailFileTruncation truncates the tailed file in place (copytruncate
// rotation); the tail must rewind to offset zero instead of waiting for
// the file to regrow past its old length.
func TestTailFileTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	if err := os.WriteFile(path, []byte("q\t1\tm1\tlong-first-machine.example.com\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, stop := startTail(t, path)
	waitFor(t, "pre-truncation event", func() bool { return m.EventsIngested.Value() == 1 })

	// Same inode, shorter content: size drops below the consumed offset.
	if err := os.WriteFile(path, []byte("q\t1\tm2\tb.example.com\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-truncation event", func() bool { return m.EventsIngested.Value() == 2 })
	if m.TailReopens.Value() == 0 {
		t.Fatal("truncation must count a tail reopen")
	}

	if _, ok := stop().DomainIndex("b.example.com"); !ok {
		t.Fatal("post-truncation event missing")
	}
}

// TestTailFileSkipsMalformedLines feeds a tailed file containing garbage
// between valid events: the tail must count and skip the bad line and
// keep consuming, instead of aborting the stream (which would make a
// supervisor restart re-ingest the whole file forever).
func TestTailFileSkipsMalformedLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	content := "q\t1\tm1\ta.example.com\n" +
		"GARBAGE NOT AN EVENT\n" +
		"q\t1\tm2\tb.example.com\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	m, stop := startTail(t, path)

	waitFor(t, "events past the garbage line", func() bool { return m.EventsIngested.Value() == 2 })
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d, want 1", m.ParseErrors.Value())
	}
	if _, ok := stop().DomainIndex("b.example.com"); !ok {
		t.Fatal("event after the malformed line missing")
	}
}

// TestTailerResumesAcrossRuns restarts a Tailer on the same file (the
// supervisor scenario after a transient failure): the second run must
// resume at the consumed offset instead of re-ingesting — and hence
// double-counting — everything the first run already applied.
func TestTailerResumesAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	first := "q\t1\tm1\ta.example.com\n" + "q\t1\tm2\tb.example.com\n"
	if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
		t.Fatal(err)
	}

	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	tailer := in.NewTailer(path, 5*time.Millisecond)

	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tailer.Run(ctx1) }()
	waitFor(t, "first run's events", func() bool { return m.EventsIngested.Value() == 2 })
	cancel1()
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "q\t1\tm3\tc.example.com\n")
	f.Close()

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { done <- tailer.Run(ctx2) }()
	waitFor(t, "appended event", func() bool { return m.EventsIngested.Value() >= 3 })
	// Give a re-ingesting tailer time to double-count before asserting.
	time.Sleep(50 * time.Millisecond)
	if got := m.EventsIngested.Value(); got != 3 {
		t.Fatalf("ingested = %d, want 3 (restarted run must not re-consume the file)", got)
	}
	cancel2()
	if err := <-done; err != nil {
		t.Fatalf("second run: %v", err)
	}
	in.Shutdown()
	g, _ := in.Snapshot()
	if g.NumMachines() != 3 {
		t.Fatalf("machines = %d, want 3", g.NumMachines())
	}
}

// TestWorkerPanicRecovery poisons the OnRotate hook: the worker must
// recover the panic, count it, and keep applying events afterwards.
func TestWorkerPanicRecovery(t *testing.T) {
	m, _ := newMetrics()
	var hookCalls atomic.Int32
	in := New(Config{
		Network: "net", StartDay: 1, Workers: 1, Metrics: m,
		OnRotate: func(day int, final *graph.Graph) {
			if hookCalls.Add(1) == 1 {
				panic("rotation hook exploded")
			}
		},
	})
	defer in.Shutdown()

	if err := in.Consume(strings.NewReader("q\t1\tm1\ta.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first event", func() bool { return m.EventsIngested.Value() == 1 })

	// Day 2 rotates; the hook panics on this first rotation.
	if err := in.Consume(strings.NewReader("q\t2\tm2\tb.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "panic recovered", func() bool { return m.Panics.Value() == 1 })

	// The shard must still be alive and applying.
	if err := in.Consume(strings.NewReader("q\t2\tm3\tc.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-panic event", func() bool { return m.EventsIngested.Value() == 3 })

	// A second rotation exercises the healed hook.
	if err := in.Consume(strings.NewReader("q\t3\tm4\td.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second rotation", func() bool { return m.Rotations.Value() == 2 })
	if hookCalls.Load() != 2 {
		t.Fatalf("hook ran %d times, want 2", hookCalls.Load())
	}
	g, _ := in.Snapshot()
	if g.Day() != 3 {
		t.Fatalf("day = %d, want 3", g.Day())
	}
}

// TestSnapshotShutdownRace hammers Snapshot/Version readers against
// concurrent dispatch and a mid-flight Shutdown; run under -race.
func TestSnapshotShutdownRace(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 4, Metrics: m})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				in.Snapshot()
				in.Version()
				in.Day()
			}
		}()
	}

	var feeders sync.WaitGroup
	for s := 0; s < 4; s++ {
		feeders.Add(1)
		go func(s int) {
			defer feeders.Done()
			var b strings.Builder
			for i := 0; i < 500; i++ {
				fmt.Fprintf(&b, "q\t%d\tm%d-%d\tr%d.example.com\n", 1+i/250, s, i, i%40)
			}
			in.Consume(strings.NewReader(b.String()))
		}(s)
	}
	feeders.Wait()
	in.Shutdown() // races the snapshot readers
	close(stop)
	readers.Wait()

	g, _ := in.Snapshot()
	if g.NumDomains() == 0 {
		t.Fatal("empty graph after concurrent ingest")
	}
}

// TestDayDoesNotWaitForRotation: the server reads Day() on every lookup,
// so it must not queue behind a rotation, which holds the epoch lock for
// write across a fold of every shard's stage and a snapshot. With a
// rotation parked in that fold, Day() still answers — the finishing day,
// until the rotation completes.
func TestDayDoesNotWaitForRotation(t *testing.T) {
	in := New(Config{Network: "net", StartDay: 10, Workers: 1})
	defer in.Shutdown()

	// Holding the shard lock parks the rotation inside takeStages, with
	// epochMu write-locked.
	sh := in.shards[0]
	sh.mu.Lock()
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()
	if err := in.Consume(strings.NewReader("q\t11\tm1\ta.example.com\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rotation holds the epoch lock", func() bool {
		if in.epochMu.TryRLock() {
			in.epochMu.RUnlock()
			return false
		}
		return true
	})

	day := make(chan int, 1)
	go func() { day <- in.Day() }()
	select {
	case d := <-day:
		if d != 10 {
			t.Errorf("Day() during the rotation = %d, want the finishing day 10", d)
		}
	case <-time.After(time.Second):
		t.Error("Day() waited for the rotation")
	}
	sh.mu.Unlock()
	locked = false
	waitFor(t, "rotation completes", func() bool { return in.Day() == 11 })
}
