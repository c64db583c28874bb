package ingest

import (
	"sync/atomic"

	"segugio/internal/logio"
)

// eventRing is a lock-free single-producer/single-consumer ring of
// events — the per-(source, shard) hop that replaced the mutex-guarded
// shard channels. The producer is one Consume loop (or Tailer); the
// consumer is the shard's worker. Neither side ever takes a lock: the
// producer owns tail, the consumer owns head, and each reads the other
// side's index with an atomic load (Go's atomics are sequentially
// consistent, so slot writes made before the tail store are visible to
// a consumer that observes the new tail, and slots freed by a head
// store are safe for the producer to overwrite).
//
// head and tail sit on their own cache lines so the producer's tail
// stores do not false-share with the consumer's head stores.
//
// Overload coordination: the producer cannot pop an SPSC ring, so
// drop-oldest eviction is a request/serve pair — the producer bumps
// evict when it finds the ring full under the drop-oldest policy, and
// the consumer sheds that many oldest entries when it next sees the
// ring full (clearing stale requests whenever the ring is not full, so
// a burst that drained on its own sheds nothing).
type eventRing struct {
	buf  []logio.Event // len is a power of two
	mask uint64
	// source names the producer kind that owns this ring; the consumer
	// uses it to attribute watermark acks. Set once at attach, read-only
	// afterwards.
	source string

	_    [64]byte
	head atomic.Uint64 // next slot to consume; consumer-owned
	_    [56]byte
	tail atomic.Uint64 // next slot to fill; producer-owned
	_    [56]byte
	// evict is the number of oldest entries the producer wants shed
	// (drop-oldest policy only). Producer adds; consumer serves or
	// clears.
	evict atomic.Uint64
	// closed marks that the producer is done; once also empty, the ring
	// is retired from its shard.
	closed atomic.Bool

	// beforeTailStore is a test seam: when set, the producer calls it
	// after filling its slots and before publishing them, the window in
	// which a consumer can drain the ring behind the producer's back.
	beforeTailStore func()
}

// newEventRing builds a ring holding at least depth events (rounded up
// to a power of two).
func newEventRing(depth int) *eventRing {
	size := 1
	for size < depth {
		size <<= 1
	}
	return &eventRing{buf: make([]logio.Event, size), mask: uint64(size - 1)}
}

// publish1 appends one event; reports whether it fit and whether the
// consumer's doorbell must be rung. The worker only parks after a sweep
// that saw every ring empty, so a wakeup is needed exactly when the
// consumer may have caught up with the tail this publish is replacing.
// That is judged from a head load taken AFTER the tail store: either the
// consumer loads tail after the store (it sees the event and does not
// park), or it loaded the old tail first — then its head store to that
// tail precedes the load, and the head read here, later still, equals
// the pre-store tail. A head read taken before the store can miss the
// consumer draining the ring in between, and the doorbell with it. A
// spurious ring (the consumer caught up but is still sweeping) costs one
// empty sweep. Producer-side only.
func (r *eventRing) publish1(e logio.Event) (ok, wake bool) {
	t := r.tail.Load()
	h := r.head.Load()
	if t-h >= uint64(len(r.buf)) {
		return false, false
	}
	r.buf[t&r.mask] = e
	if r.beforeTailStore != nil {
		r.beforeTailStore()
	}
	r.tail.Store(t + 1)
	return true, r.head.Load() == t
}

// publish appends as many of events as fit, returning how many and
// whether the doorbell must be rung (see publish1). Producer-side only.
func (r *eventRing) publish(events []logio.Event) (n int, wake bool) {
	t := r.tail.Load()
	h := r.head.Load()
	free := uint64(len(r.buf)) - (t - h)
	n = len(events)
	if uint64(n) > free {
		n = int(free)
	}
	if n == 0 {
		return 0, false
	}
	for i := 0; i < n; i++ {
		r.buf[(t+uint64(i))&r.mask] = events[i]
	}
	if r.beforeTailStore != nil {
		r.beforeTailStore()
	}
	r.tail.Store(t + uint64(n))
	return n, r.head.Load() == t
}

// consume copies up to len(dst) queued events out and frees their
// slots. Consumer-side only.
func (r *eventRing) consume(dst []logio.Event) int {
	h := r.head.Load()
	t := r.tail.Load()
	n := int(t - h)
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		pos := (h + uint64(i)) & r.mask
		dst[i] = r.buf[pos]
		r.buf[pos] = logio.Event{} // release string/slice references
	}
	r.head.Store(h + uint64(n))
	return n
}

// shedOldest drops up to max queued events from the head — serving a
// producer's drop-oldest eviction request — and returns how many went.
// Consumer-side only.
func (r *eventRing) shedOldest(max uint64) int {
	h := r.head.Load()
	t := r.tail.Load()
	n := t - h
	if n > max {
		n = max
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(h+i)&r.mask] = logio.Event{}
	}
	r.head.Store(h + n)
	return int(n)
}

// size is the queued-event count. Racy by nature; exact only from the
// producer or consumer goroutine.
func (r *eventRing) size() uint64 { return r.tail.Load() - r.head.Load() }

// full reports whether every slot is queued.
func (r *eventRing) full() bool { return r.size() >= uint64(len(r.buf)) }

// empty reports whether no slot is queued.
func (r *eventRing) empty() bool { return r.tail.Load() == r.head.Load() }

// close marks the producer done. The consumer retires the ring once it
// has drained.
func (r *eventRing) close() { r.closed.Store(true) }

// isClosed reports whether the producer is done.
func (r *eventRing) isClosed() bool { return r.closed.Load() }
