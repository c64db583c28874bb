package ingest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/health"
	"segugio/internal/logio"
	"segugio/internal/metrics"
)

func ringEvent(i int) logio.Event {
	return logio.Event{Kind: logio.EventQuery, Day: i, Machine: "m", Domain: "d.example.com"}
}

func TestRingDepthRounding(t *testing.T) {
	for depth, want := range map[int]int{1: 1, 2: 2, 3: 4, 511: 512, 512: 512, 513: 1024} {
		if r := newEventRing(depth); len(r.buf) != want {
			t.Errorf("depth %d -> %d slots, want %d", depth, len(r.buf), want)
		}
	}
}

func TestRingPublishConsume(t *testing.T) {
	r := newEventRing(4)
	if ok, wasEmpty := r.publish1(ringEvent(0)); !ok || !wasEmpty {
		t.Fatalf("first publish1 = (%v, %v), want (true, true)", ok, wasEmpty)
	}
	if ok, wasEmpty := r.publish1(ringEvent(1)); !ok || wasEmpty {
		t.Fatalf("second publish1 = (%v, %v), want (true, false)", ok, wasEmpty)
	}
	n, wasEmpty := r.publish([]logio.Event{ringEvent(2), ringEvent(3), ringEvent(4)})
	if n != 2 || wasEmpty {
		t.Fatalf("batch publish into 2 free slots = (%d, %v), want (2, false)", n, wasEmpty)
	}
	if !r.full() {
		t.Fatal("ring should be full")
	}
	if ok, _ := r.publish1(ringEvent(9)); ok {
		t.Fatal("publish1 into a full ring must fail")
	}
	dst := make([]logio.Event, 8)
	if n := r.consume(dst); n != 4 {
		t.Fatalf("consume = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if dst[i].Day != i {
			t.Fatalf("consumed order broken: slot %d has day %d", i, dst[i].Day)
		}
	}
	if !r.empty() {
		t.Fatal("ring should be empty after full drain")
	}
	// Consumed slots must be zeroed so string/slice refs are released.
	for i := range r.buf {
		if r.buf[i].Machine != "" || r.buf[i].IPs != nil {
			t.Fatalf("slot %d still holds references after consume", i)
		}
	}
	// Batch publish into an empty ring reports the empty->nonempty edge.
	if n, wasEmpty := r.publish([]logio.Event{ringEvent(5)}); n != 1 || !wasEmpty {
		t.Fatalf("publish after drain = (%d, %v), want (1, true)", n, wasEmpty)
	}
}

func TestRingWraparound(t *testing.T) {
	r := newEventRing(4)
	dst := make([]logio.Event, 4)
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if ok, _ := r.publish1(ringEvent(round*3 + i)); !ok {
				t.Fatalf("round %d: publish1 failed with %d queued", round, r.size())
			}
		}
		if n := r.consume(dst); n != 3 {
			t.Fatalf("round %d: consume = %d, want 3", round, n)
		}
		for i := 0; i < 3; i++ {
			if dst[i].Day != next {
				t.Fatalf("round %d: got day %d, want %d", round, dst[i].Day, next)
			}
			next++
		}
	}
}

func TestRingShedOldest(t *testing.T) {
	r := newEventRing(4)
	for i := 0; i < 4; i++ {
		r.publish1(ringEvent(i))
	}
	if n := r.shedOldest(2); n != 2 {
		t.Fatalf("shedOldest(2) = %d", n)
	}
	dst := make([]logio.Event, 4)
	if n := r.consume(dst); n != 2 || dst[0].Day != 2 || dst[1].Day != 3 {
		t.Fatalf("after shed: consumed %d starting at day %d, want 2 starting at 2", n, dst[0].Day)
	}
	// Shedding more than queued drops only what's there.
	r.publish1(ringEvent(9))
	if n := r.shedOldest(100); n != 1 {
		t.Fatalf("shedOldest(100) with 1 queued = %d", n)
	}
}

// TestRingSPSCStress hammers one producer against one consumer; under
// -race this doubles as a memory-model check on the index handoff. The
// consumer verifies strict FIFO order and the exact total.
func TestRingSPSCStress(t *testing.T) {
	const total = 30000
	r := newEventRing(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		i := 0
		for i < total {
			if ok, _ := r.publish1(ringEvent(i)); ok {
				i++
				continue
			}
			// Mix in batch publishes while backed off.
			if i+2 <= total {
				n, _ := r.publish([]logio.Event{ringEvent(i), ringEvent(i + 1)})
				i += n
			}
			runtime.Gosched() // single-core machines need the handoff
		}
		r.close()
	}()

	dst := make([]logio.Event, 32)
	seen := 0
	for {
		n := r.consume(dst)
		for i := 0; i < n; i++ {
			if dst[i].Day != seen {
				t.Errorf("out of order: got %d, want %d", dst[i].Day, seen)
				wg.Wait()
				return
			}
			seen++
		}
		if n == 0 {
			if r.isClosed() && r.empty() {
				break
			}
			runtime.Gosched()
		}
	}
	wg.Wait()
	if seen != total {
		t.Fatalf("consumed %d events, want %d", seen, total)
	}
}

// TestRingEvictProtocol exercises the producer-requests/consumer-serves
// drop-oldest handshake the way awaitRoom and sweepShard use it.
func TestRingEvictProtocol(t *testing.T) {
	r := newEventRing(4)
	for i := 0; i < 4; i++ {
		r.publish1(ringEvent(i))
	}
	// Producer finds the ring full under drop-oldest and requests one
	// eviction; consumer serves it because the ring is still full.
	r.evict.Add(1)
	if want := r.evict.Load(); want != 1 {
		t.Fatal("evict request lost")
	}
	served := r.shedOldest(min(r.evict.Load(), uint64(len(r.buf))))
	if served != 1 {
		t.Fatalf("served %d evictions, want 1", served)
	}
	r.evict.Add(^uint64(uint64(served) - 1))
	if r.evict.Load() != 0 {
		t.Fatalf("evict counter = %d after serving, want 0", r.evict.Load())
	}
	// A stale request on a no-longer-full ring is cleared, not served
	// (the burst drained on its own; shedding now would drop for free).
	r.evict.Add(3)
	if !r.full() {
		dst := make([]logio.Event, 4)
		r.consume(dst)
	}
	if r.full() {
		t.Fatal("ring should not be full after drain")
	}
	r.evict.Store(0) // what sweepShard does on the not-full path
	if r.evict.Load() != 0 {
		t.Fatal("stale evict request must clear")
	}
}

// TestRingDoorbellSurvivesDrainBehindProducer forces the interleaving
// that used to lose the doorbell: the producer reads head while the ring
// still holds a backlog, the consumer then drains that backlog (and, in
// the daemon, finds every ring empty and parks), and only then does the
// producer's tail store land. A wake decision taken from the early head
// read says "not empty, no doorbell" and the event sits behind a parked
// worker forever; the post-store head re-read must ask for the doorbell.
func TestRingDoorbellSurvivesDrainBehindProducer(t *testing.T) {
	for _, batch := range []bool{false, true} {
		r := newEventRing(8)
		r.publish1(ringEvent(0)) // backlog the producer's first head read will see
		r.beforeTailStore = func() {
			r.beforeTailStore = nil
			drained := make(chan int)
			go func() { // the consumer side runs on its own goroutine, as in the daemon
				n := r.consume(make([]logio.Event, 8))
				if !r.empty() {
					n = -1
				}
				drained <- n
			}()
			if n := <-drained; n != 1 {
				t.Errorf("consumer drained %d events behind the producer, want exactly the backlog of 1", n)
			}
		}
		var wake bool
		if batch {
			_, wake = r.publish([]logio.Event{ringEvent(1), ringEvent(2)})
		} else {
			_, wake = r.publish1(ringEvent(1))
		}
		if !wake {
			t.Fatalf("batch=%v: consumer drained the ring between the producer's head read and tail store, and no doorbell was requested", batch)
		}
		if r.empty() {
			t.Fatalf("batch=%v: published event not visible", batch)
		}
	}
}

// TestDoorbellWakesParkedWorker is the same interleaving against a live
// worker under the block policy: the worker drains the backlog and parks
// while the producer sits between its head read and its tail store. The
// event published into that window must still be applied.
func TestDoorbellWakesParkedWorker(t *testing.T) {
	m, _ := newMetrics()
	gate := make(chan struct{})
	var gated atomic.Bool
	in := New(Config{Network: "bell", StartDay: 1, Workers: 1, ShedPolicy: ShedBlock, Metrics: m,
		ApplyHook: func() {
			if gated.CompareAndSwap(false, true) {
				<-gate // hold the worker inside its first batch
			}
		}})
	defer in.Shutdown()
	src := in.newSource("test")
	defer src.close()
	ev := func(i int) logio.Event {
		return logio.Event{Kind: logio.EventQuery, Day: 1, Machine: "m", Domain: fmt.Sprintf("d%d.example.com", i)}
	}
	src.dispatch(ev(0))
	waitFor(t, "worker to pick up the first event", gated.Load)
	src.dispatch(ev(1)) // queued behind the held worker: the backlog
	r := src.rings[0]
	r.beforeTailStore = func() {
		r.beforeTailStore = nil
		close(gate)
		// The worker applies both queued events, spends the doorbell token
		// the second dispatch left, sweeps once more and parks.
		waitFor(t, "worker to drain the backlog", func() bool {
			return m.EventsIngested.Value() == 2 && r.empty() && len(in.wake[0]) == 0
		})
		time.Sleep(20 * time.Millisecond) // let the final empty sweep reach the park
	}
	src.dispatch(ev(2))
	waitFor(t, "event published behind the parked worker to be applied", func() bool {
		return m.EventsIngested.Value() == 3
	})
}

// TestDropOldestEvictsOnePerWait pins what a full ring costs under
// drop-oldest: one eviction per wait, whether the producer is waiting
// with one event (dispatch) or with the remainder of a staged batch
// (flushShard). The worker frees a whole batch behind the eviction, so
// asking for one eviction per waiting event would shed most of a ring to
// admit events that were about to fit anyway.
func TestDropOldestEvictsOnePerWait(t *testing.T) {
	const ringSize, waiting = 256, 200
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			m, reg := newMetrics()
			m.EventsShed = map[string]*metrics.Counter{ShedDropOldest: reg.NewCounter("shed_total", "", "")}
			shed := m.EventsShed[ShedDropOldest]
			h := health.New(health.Config{})
			h.Set("test", health.Overloaded, "forced")
			gate := make(chan struct{})
			var gated atomic.Bool
			in := New(Config{Network: "evict", StartDay: 1, Workers: 1, QueueDepth: ringSize,
				ShedPolicy: ShedDropOldest, Health: h, Metrics: m,
				ApplyHook: func() {
					if gated.CompareAndSwap(false, true) {
						<-gate // hold the worker inside its first batch
					}
				}})
			defer in.Shutdown()
			src := in.newSource("test")
			defer src.close()
			next := 0
			ev := func() logio.Event {
				next++
				return logio.Event{Kind: logio.EventQuery, Day: 1, Machine: "m", Domain: fmt.Sprintf("d%d.example.com", next)}
			}
			src.dispatch(ev())
			waitFor(t, "worker to pick up the first event", gated.Load)
			r := src.rings[0]
			for i := 0; i < ringSize; i++ {
				src.dispatch(ev()) // fills the ring behind the held worker
			}
			if !r.full() || r.evict.Load() != 0 {
				t.Fatalf("ring holds %d of %d with %d evictions requested, want full and none", r.size(), ringSize, r.evict.Load())
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < waiting; i++ {
					if e := ev(); batched {
						src.dispatchBatched(&e)
					} else {
						src.dispatch(e)
					}
				}
				src.flushAll()
			}()
			waitFor(t, "producer to ask for an eviction", func() bool { return r.evict.Load() > 0 })
			close(gate)
			<-done
			total := int64(1 + ringSize + waiting)
			waitFor(t, "every event to be applied or shed", func() bool {
				return m.EventsIngested.Value()+shed.Value() == total
			})
			if shed.Value() != 1 || m.EventsDropped.Value() != 0 {
				t.Fatalf("shed %d and dropped %d of %d events, want 1 and 0", shed.Value(), m.EventsDropped.Value(), total)
			}
		})
	}
}
