// Package ingest turns segugio's batch graph construction into a
// streaming subsystem: it consumes logio event-stream records (DNS
// queries and resolutions) from any reader — stdin, a tailed file, or a
// TCP connection — shards them by machine-ID hash across worker
// goroutines, and applies them incrementally to a live behavior-graph
// Builder. Each (source, shard) pair is a bounded SPSC ring; what happens
// when a ring fills is Config.ShedPolicy's call: block the source so TCP
// pushes back on the sender (the default), or block until the daemon is
// overloaded and then evict the oldest queued event. That policy is the
// whole of the ingester's backpressure: nothing else slows a source down.
//
// A segb1 stream numbers its names (logio.Event.MachineSym/DomainSym), and
// the ingester resolves each number once instead of hashing two strings
// per event: each eventSource caches symbol → shard, and each (source,
// shard) eventRing caches symbol → day-builder node id (symNodes), each
// table with one goroutine and no lock, dying with the connection.
//
// One epoch owns each day (epoch.go): the day builder, the snapshot
// cache and the shards' first-query bitmaps. An event stamped with a later
// day than the live epoch retires it (its final graph goes to the OnRotate
// hook, and to SnapshotSince callers until one completes a pass over it)
// and starts a fresh one, so the live graph always covers exactly the
// current observation window, mirroring the paper's one-day-at-a-time
// deployment loop.
//
// Files split by layer: source.go reads and dispatches events, apply.go
// drains the rings into the shards and their WAL stripes, epoch.go
// rotates days and takes snapshots, durable.go checkpoints and recovers,
// and this file holds the configuration and the Ingester's lifetime.
package ingest

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/metrics"
	"segugio/internal/obs"
	"segugio/internal/wal"
)

// Metrics bundles the instrumentation hooks the ingester feeds. Any field
// may be nil; nil metrics are simply not recorded.
type Metrics struct {
	// EventsIngested counts events applied to the live graph.
	EventsIngested *metrics.Counter
	// EventsDropped counts events dropped because a shard queue was full.
	EventsDropped *metrics.Counter
	// EventsStale counts events discarded for belonging to an already
	// rotated-out day.
	EventsStale *metrics.Counter
	// ParseErrors counts malformed input. The tail and trace_dns sources
	// count a bad or over-long line and skip it, since they must survive
	// whatever lands in a live log or tap; a bad line ends a text event
	// stream (stdin, TCP) with a line-numbered error. A segb1 stream skips
	// a bad frame and aborts only when it cannot resync.
	ParseErrors *metrics.Counter
	// Rotations counts epoch rotations.
	Rotations *metrics.Counter
	// GraphMachines/GraphDomains/GraphObservations mirror the live
	// graph's size after each applied batch: machines and domains are the
	// day builder's name table, observations its edges at the last fold
	// plus the query events staged since.
	GraphMachines     *metrics.Gauge
	GraphDomains      *metrics.Gauge
	GraphObservations *metrics.Gauge
	// Panics counts panics recovered inside ingest workers (the worker
	// restarts its drain loop instead of killing the daemon).
	Panics *metrics.Counter
	// TailReopens counts tailed-file reopens forced by log rotation or
	// in-place truncation.
	TailReopens *metrics.Counter
	// WALAppendFailures counts applied batches that could not be logged
	// to the write-ahead log (the daemon keeps serving; durability of
	// those events is lost).
	WALAppendFailures *metrics.Counter
	// SnapshotSeconds observes how long producing one snapshot takes
	// (incremental graph freeze plus label application).
	SnapshotSeconds *metrics.Histogram
	// EventsShed counts unacknowledged events shed by the overload
	// policy, keyed by reason ("drop-oldest"). Shedding only
	// happens in the overloaded health state under an explicit policy;
	// a missing reason key is simply not recorded.
	EventsShed map[string]*metrics.Counter
	// ShardEvents/ShardApplySeconds are per-graph-shard instrumentation:
	// ShardEvents[s] counts events applied to shard s, ShardApplySeconds[s]
	// observes shard s's apply-segment latency (lock wait included, so
	// cross-shard contention is visible). Slices shorter than the shard
	// count leave the remaining shards uninstrumented.
	ShardEvents       []*metrics.Counter
	ShardApplySeconds []*metrics.Histogram
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

func addN(c *metrics.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// Config parameterizes an Ingester. The zero Config (plus a Network and
// StartDay) is a purely in-memory ingester; OpenDurable layers the
// write-ahead log and checkpointing on top.
type Config struct {
	// Network names the graphs built from the stream.
	Network string
	// StartDay is the initial epoch day. Events from earlier days are
	// counted stale and dropped; an event from a later day rotates the
	// epoch forward.
	StartDay int
	// Suffixes annotates domains with effective 2LDs; defaults to
	// dnsutil.DefaultSuffixList.
	Suffixes *dnsutil.SuffixList
	// Workers is the shard count (default 4): one worker goroutine, one
	// staging buffer with its own apply lock, and (when durable) one WAL
	// stripe per shard. Events are sharded by machine-ID hash (queries) or
	// domain hash (resolutions) to spread the load; one machine's events
	// stay ordered relative to each other. A durable restart with a
	// different value replays every stripe into the new count.
	Workers int
	// QueueDepth bounds each (source, shard) ring (default 4096, rounded
	// up to a power of two). What a full ring does is ShedPolicy's call.
	QueueDepth int
	// Activity, when non-nil, receives a per-day domain/e2LD activity mark
	// for every queried name (on its first query per shard and day, and
	// again for a restored day at startup), keeping F2 features live.
	Activity *activity.Log
	// ActivityKeepDays bounds the activity log's history after a rotation
	// (default 30 days; 0 keeps everything only if Activity is nil).
	ActivityKeepDays int
	// PrepareSnapshot, when non-nil, runs once on every freshly built
	// snapshot before it is cached and returned (segugiod applies
	// ground-truth labels here). It must not call back into the Ingester.
	PrepareSnapshot func(*graph.Graph)
	// OnRotate, when non-nil, is called with the final graph of each
	// retired epoch; PrepareSnapshot (when set) has already run on it. It
	// runs outside the ingest lock but on a worker goroutine: heavy work
	// should be handed off. It must not call back into the Ingester. With
	// a durable ingester delivery is at-most-once across crashes: a crash
	// between the WAL logging of a rotating event and the hook call loses
	// that delivery, and WAL replay does not re-fire hooks.
	OnRotate func(day int, final *graph.Graph)
	// Metrics hooks; may be nil.
	Metrics *Metrics
	// Tracer, when non-nil, receives pipeline spans: per-batch graph_apply
	// traces with wal_append children, plus chunked parse traces and
	// per-line parse stage observations. A nil Tracer costs nothing.
	Tracer *obs.Tracer
	// Health, when non-nil, receives the ingester's overload signals:
	// shard-queue saturation (overloaded, short TTL so it decays when
	// pressure drains) and WAL append failures or latency stalls
	// (degraded). It also gates shedding — see ShedPolicy.
	Health *health.Tracker
	// ShedPolicy decides what happens to an event whose shard queue is
	// full. Every policy blocks the source (TCP backpressure) while the
	// daemon is healthy or degraded; only the overloaded health state
	// sheds unacknowledged events, and only as the policy says:
	//
	//	ShedBlock      never shed — block until the shard drains (default)
	//	ShedDropOldest evict the oldest queued event to admit the newest
	ShedPolicy string
	// Watermarks, when non-nil, receives event-time freshness marks:
	// every source advances its day frontier at dispatch (before any
	// shedding, so a dropped event still counts as observed input), and
	// the wal_append / graph_apply / snapshot stages acknowledge the
	// event days they complete. A nil Watermarks costs one predictable
	// branch per event.
	Watermarks *obs.Watermarks
	// ApplyHook, when non-nil, runs at the start of every apply batch on
	// the worker goroutine — the test seam the chaos harness uses to
	// stall graph apply and burn the freshness SLO.
	ApplyHook func()

	// restored is the day builder OpenDurable recovered from a
	// checkpoint, and restoredVersion the graph version it was written at.
	restored        *graph.Builder
	restoredVersion uint64
}

// Shed policies (Config.ShedPolicy).
const (
	ShedBlock      = "block"       // never shed: block the source until the shard drains
	ShedDropOldest = "drop-oldest" // overloaded only: evict the oldest queued event
)

// Health signal names and decay windows asserted by the ingester.
const (
	healthSignalQueue = "ingest_queue"
	healthSignalWAL   = "wal"
	// queuePressureTTL is how long one full-shard observation keeps the
	// ingest_queue signal asserted: sustained pressure re-arms it every
	// dispatch, a transient burst decays back to healthy on its own.
	queuePressureTTL = 2 * time.Second
	// walFaultTTL covers WAL append failures and latency stalls; longer
	// than the queue TTL because disk trouble rarely clears in a burst.
	walFaultTTL = 5 * time.Second
	// slowWALAppend is the append+fsync latency past which the WAL is
	// considered stalling (slow disk, saturated fsync queue).
	slowWALAppend = 250 * time.Millisecond
)

// ValidShedPolicy reports whether p names a shed policy ("" selects
// ShedBlock).
func ValidShedPolicy(p string) bool {
	switch p {
	case "", ShedBlock, ShedDropOldest:
		return true
	}
	return false
}

// ErrShuttingDown aborts Consume loops once Shutdown has begun.
var ErrShuttingDown = errors.New("ingest: shutting down")

// graphShard is one worker's write side of the day's graph: a stage of
// day-builder node ids with its own apply lock, an optional WAL stripe,
// and per-shard instrumentation mirrors. It holds no names and no edges
// of its own; the fold takes its stage into the day builder. Sharding is
// what lets N ingest workers apply batches without contending on one
// lock — each worker's rings feed exactly one shard.
type graphShard struct {
	// mu guards the shard's stage, its WAL stripe buffers and its row of
	// the live epoch's queried bitmaps: stages and stripe appends move
	// together inside shardApply's critical section, so the fold takes
	// each stage with the stripe position that covers it.
	mu     sync.Mutex
	stage  graph.Stage
	wal    *wal.Log
	walBuf []byte // event lines of the WAL record being built
	// walBatchErr records a WAL append failure inside the current apply
	// segment so the wal_append watermark holds back (guarded by mu;
	// reset at the top of each shardApply).
	walBatchErr bool
	// staged counts the query events in the stage, for the observations
	// gauge.
	staged atomic.Int64

	// Per-shard instrumentation; nil fields are not recorded.
	events       *metrics.Counter
	applySeconds *metrics.Histogram
	wmSource     string // watermark source label ("shard-N")
}

// Ingester owns the live epoch — one day builder — and the worker shards
// staging events for it.
type Ingester struct {
	cfg Config
	m   Metrics

	// Each shard owns a set of SPSC rings — one per live source — that
	// its worker sweeps. shardRings[s] is swapped copy-on-write under
	// ringMu when sources attach or retire, so workers read it with one
	// atomic load and no lock on the hot path. wake[s] is a one-slot
	// doorbell: producers ring it when a publish finds the consumer caught
	// up with the ring (see eventRing.publish1), the only publish a
	// parked worker can miss.
	shardRings  []atomic.Pointer[[]*eventRing]
	wake        []chan struct{}
	stopWorkers chan struct{}
	ringMu      sync.Mutex
	workers     sync.WaitGroup

	consumers sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once

	// hasWAL is set when OpenDurable wired WAL stripes.
	hasWAL bool

	// epochMu orders epoch rotation against everything that uses the
	// live epoch's builder: batch appliers, folds and checkpoint captures
	// hold it for read; rotation holds it for write. Within it, each
	// shard's own mutex serializes access to that shard's stage and WAL
	// stripe — the hot path takes epochMu.RLock (uncontended between
	// workers) plus exactly one shard lock.
	epochMu sync.RWMutex
	// ep is the live epoch (see epoch). Only rotate stores it, under
	// epochMu's write lock, so a reader that needs the day alone — Day(),
	// on every lookup — loads it without queueing behind a rotation. Every
	// consumer (classify, score cache, audit trail, checkpoint) runs on
	// its builder's snapshots.
	ep     atomic.Pointer[epoch]
	shards []*graphShard
	// folded mirrors the day builder's edge count at the last fold, for
	// the observations gauge.
	folded atomic.Int64

	// version moves whenever a shard stages events; incremented inside
	// the shard lock, after the stage a fold would take holds them.
	version atomic.Uint64

	// Durability plumbing (nil/zero without OpenDurable).
	durable *DurableConfig
	ckptMu  sync.Mutex
	durStop chan struct{}
	durWG   sync.WaitGroup
	durOnce sync.Once

	// snapMu serializes snapshot construction and guards the live
	// epoch's snapshot cache.
	snapMu sync.Mutex

	// finished is the newest retired epoch no SnapshotSince caller has
	// completed a pass over yet: kept until a call's since reaches its
	// version or the next rotation replaces it (nil when there is none,
	// and always nil until sinceCallers says somebody has called
	// SnapshotSince — see rotate).
	finished     atomic.Pointer[epoch]
	sinceCallers atomic.Bool
}

// New builds an Ingester and starts its worker shards. Call Shutdown to
// stop them.
func New(cfg Config) *Ingester {
	if cfg.Suffixes == nil {
		cfg.Suffixes = dnsutil.DefaultSuffixList()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.ActivityKeepDays <= 0 {
		cfg.ActivityKeepDays = 30
	}
	in := &Ingester{cfg: cfg, closing: make(chan struct{})}
	b := cfg.restored
	if b == nil {
		b = graph.NewBuilder(cfg.Network, cfg.StartDay, cfg.Suffixes)
	}
	// The epoch owns the restored builder now; a second reference here
	// would keep the recovered day's graph alive past its rotation.
	in.cfg.restored = nil
	in.ep.Store(&epoch{builder: b, queried: make([][]uint64, cfg.Workers)})
	in.version.Store(cfg.restoredVersion)
	in.folded.Store(int64(b.NumObservations()))
	if cfg.Metrics != nil {
		in.m = *cfg.Metrics
	}
	in.shards = make([]*graphShard, cfg.Workers)
	for s := range in.shards {
		sh := &graphShard{wmSource: "shard-" + strconv.Itoa(s)}
		if s < len(in.m.ShardEvents) {
			sh.events = in.m.ShardEvents[s]
		}
		if s < len(in.m.ShardApplySeconds) {
			sh.applySeconds = in.m.ShardApplySeconds[s]
		}
		in.shards[s] = sh
	}
	in.publishGauges()
	if wm := cfg.Watermarks; wm != nil {
		// The snapshot stage trails the merged stream, so it is measured
		// against the max frontier across all sources — as is each graph
		// shard's apply mark, whose "shard-N" label partitions the merged
		// stream rather than naming a source.
		wm.Register(obs.WatermarkSnapshot, obs.WatermarkSourceAll)
		for _, sh := range in.shards {
			wm.RegisterAllFrontier(obs.WatermarkShardApply, sh.wmSource)
		}
	}
	in.stopWorkers = make(chan struct{})
	in.shardRings = make([]atomic.Pointer[[]*eventRing], cfg.Workers)
	in.wake = make([]chan struct{}, cfg.Workers)
	for s := 0; s < cfg.Workers; s++ {
		empty := []*eventRing{}
		in.shardRings[s].Store(&empty)
		in.wake[s] = make(chan struct{}, 1)
		in.workers.Add(1)
		go in.worker(s)
	}
	return in
}

// Version returns a counter that moves whenever the live graph changes;
// callers can cheaply detect staleness between Snapshot calls.
func (in *Ingester) Version() uint64 {
	return in.version.Load()
}

// NumShards reports the shard count.
func (in *Ingester) NumShards() int {
	return len(in.shards)
}

// QueueDepths reports the queued-event count per shard, summed across
// each shard's source rings — the shard_queue_depth gauge.
func (in *Ingester) QueueDepths() []int64 {
	out := make([]int64, len(in.shardRings))
	for s := range in.shardRings {
		var n uint64
		for _, r := range *in.shardRings[s].Load() {
			n += r.size()
		}
		out[s] = int64(n)
	}
	return out
}

// Shutdown drains the ingest pipeline: new and in-flight Consume loops
// stop, queued events are applied, and workers exit. When the ingester
// is durable, a final WAL sync and checkpoint run after the drain, so a
// clean shutdown restarts with an empty replay. It is idempotent.
func (in *Ingester) Shutdown() {
	in.closeOnce.Do(func() {
		close(in.closing)
		in.consumers.Wait()
		// Producers are done; close every ring so workers drain what is
		// queued, then tell them to exit once their sweeps come up empty.
		in.ringMu.Lock()
		for s := range in.shardRings {
			for _, r := range *in.shardRings[s].Load() {
				r.close()
			}
		}
		in.ringMu.Unlock()
		close(in.stopWorkers)
		for s := range in.wake {
			in.notify(s)
		}
	})
	in.workers.Wait()
	in.durOnce.Do(func() {
		if !in.hasWAL {
			return
		}
		if in.durStop != nil {
			close(in.durStop)
			in.durWG.Wait()
		}
		if in.durable != nil {
			in.checkpoint(in.durable)
		}
		for _, sh := range in.shards {
			if sh.wal != nil {
				sh.wal.Close()
			}
		}
	})
}
