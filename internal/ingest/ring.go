package ingest

import (
	"sync/atomic"

	"segugio/internal/graph"
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

	// nodes is the consumer's symbol → node id cache for this ring's
	// stream (see symNodes). Only the shard's worker touches it, inside
	// shardApply, so it needs no lock; it dies with the ring.
	nodes symNodes

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

// symTable maps the 1-based symbol ids of one segb1 stream to small
// non-negative integers, stored plus one so that the zero value of a
// slot means "not seen". It grows lazily to the highest symbol put; the
// decoder's symbol cap (logio: 2^18 per stream) bounds it at 1 MiB.
type symTable []int32

// get returns the value stored for sym; ok is false for symbol 0 (the
// name was not numbered) and for a symbol not put yet.
func (t symTable) get(sym uint32) (v int32, ok bool) {
	if sym == 0 || int(sym) >= len(t) {
		return 0, false
	}
	return t[sym] - 1, t[sym] != 0
}

// put stores v for sym; symbol 0 is not stored.
func (t *symTable) put(sym uint32, v int32) {
	if sym == 0 {
		return
	}
	if grow := int(sym) + 1 - len(*t); grow > 0 {
		*t = append(*t, make([]int32, grow)...)
	}
	(*t)[sym] = v + 1
}

// symNodes caches, per ring, the node id each stream symbol resolved to
// in the day builder: one table per use, because a symbol used as a
// machine id and as a domain names two different nodes. There is one day
// builder per epoch day (rotation is the only swap while rings exist), so
// the ids are good for the day they were issued on; bind clears the tables
// when the epoch has rotated since the ring's previous batch. The cache
// holds no builder: an idle ring keeps nothing of a finished day alive.
type symNodes struct {
	day             int
	machine, domain symTable
}

// bind points the cache at the epoch day of the batch about to be
// applied, forgetting every id an earlier day's builder issued.
func (n *symNodes) bind(day int) {
	if n.day != day {
		n.day = day
		clear(n.machine)
		clear(n.domain)
	}
}

// machineID resolves a query's machine to its node id in b, the day
// builder of the bound day: two slice loads when this ring has met the
// symbol that day, the name table's intern otherwise — which then fills
// the slot.
func (n *symNodes) machineID(b *graph.Builder, sym uint32, name string) int32 {
	if id, ok := n.machine.get(sym); ok {
		return id
	}
	id := b.Machine(name)
	n.machine.put(sym, id)
	return id
}

// domainID is machineID for an event's (normalized) domain.
func (n *symNodes) domainID(b *graph.Builder, sym uint32, name string) int32 {
	if id, ok := n.domain.get(sym); ok {
		return id
	}
	id := b.Domain(name)
	n.domain.put(sym, id)
	return id
}
