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
// per event. Symbol → shard lives with the producer: each eventSource
// caches graph.ShardOf per symbol, one table per routing key (a query
// routes by its machine, a resolution by its normalized domain, and one
// symbol can be both). Symbol → node id lives with the consumer: each
// (source, shard) eventRing owns a table pair that shardApply consults
// under the shard lock — a hit is two slice loads and an id staged in the
// shard's graph.Stage; a miss, a literal, or any event of a source that
// numbers nothing (text, tail, trace_dns: symbol 0) interns the string in
// the day builder's name table and fills the slot. The ids belong to one
// epoch day's builder and are cleared by the first batch after a rotation
// (the only time the day builder is replaced under a live ring); they are
// keyed on the day, not the builder, so an idle ring pins nothing. Every table
// has exactly one reader-writer goroutine, so none has a lock, grows only
// to the highest symbol its ring or source has seen (logio caps a stream
// at 2^18 symbols: at most 1 MiB per table, 2 MiB per ring), and dies
// with the connection.
//
// Epochs rotate at day boundaries: an event stamped with a later day than
// the current epoch finalizes the old graph (handing a snapshot to the
// OnRotate hook, and once to the next SnapshotSince caller so the day's
// last events are still classified) and starts a fresh one, so the live
// graph always covers exactly the current observation window, mirroring
// the paper's one-day-at-a-time deployment loop.
package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/obs"
	"segugio/internal/wal"

	"segugio/internal/activity"
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
	// ParseErrors counts malformed input: a bad line aborts stream
	// sources (stdin, TCP) and is counted and skipped by the tail
	// source, which must survive whatever lands in a live log file.
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
	// OnRotate, when non-nil, is called with the finalized graph of each
	// completed epoch; PrepareSnapshot (when set) has already run on it. It runs outside the ingest lock but on a worker
	// goroutine: heavy work should be handed off. It must not call back
	// into the Ingester. With a durable ingester delivery is
	// at-most-once across crashes: a crash between the WAL logging of a
	// rotating event and the hook call loses that delivery, and WAL
	// replay does not re-fire hooks.
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
	// mu guards the shard's stage, its queried bitmap and its WAL stripe
	// buffers: stages and stripe appends move together inside shardApply's
	// critical section, so the fold takes each stage with the stripe
	// position that covers it.
	mu    sync.Mutex
	stage graph.Stage
	// queried has a bit per day-builder domain id this shard has seen
	// queried today, so each domain's activity mark runs once per shard
	// and day. Kept only when the ingester marks activity.
	queried []uint64
	wal     *wal.Log
	walBuf  []byte // event lines of the WAL record being built
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

// Ingester owns the live behavior graph — one day builder — and the
// worker shards staging events for it.
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

	// epochMu orders epoch rotation against everything that reads the
	// current day or the day builder: batch appliers, folds and
	// checkpoint captures hold it for read; rotation holds it for write.
	// Within it, each shard's own mutex serializes access to that shard's
	// stage and WAL stripe — the hot path takes epochMu.RLock
	// (uncontended between workers) plus exactly one shard lock.
	epochMu sync.RWMutex
	day     int // guarded by epochMu
	// dayNow mirrors day for Day(): written where day is, read without
	// epochMu, so a per-lookup read never queues behind a rotation.
	dayNow atomic.Int64
	shards []*graphShard
	// builder is the day's one graph. Workers intern names into its table
	// under their shard locks; its fold side — Fold, Snapshot, MarkLabeled
	// — is guarded by snapMu+epochMu.R (snapshots, checkpoints) or
	// epochMu.W (rotation). Every consumer (classify, prune plan, score
	// cache, audit trail, checkpoint) runs on its snapshots.
	builder *graph.Builder
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

	// snapMu serializes snapshot construction; the cached snapshot is
	// reused until the underlying version moves.
	snapMu      sync.Mutex
	snap        *graph.Graph
	snapVersion uint64
	snapDay     int

	// finished is the newest rotated-out epoch no SnapshotSince caller has
	// completed a pass over yet: kept until a call's since reaches its
	// version or the next rotation replaces it (nil when there is none,
	// and always nil until somebody has called SnapshotSince — see
	// rotate). finishedMu guards both.
	finishedMu   sync.Mutex
	finished     *finishedEpoch
	sinceCallers bool
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
	in := &Ingester{
		cfg:     cfg,
		closing: make(chan struct{}),
		builder: cfg.restored,
	}
	if in.builder == nil {
		in.builder = graph.NewBuilder(cfg.Network, cfg.StartDay, cfg.Suffixes)
	}
	// The ingester owns the restored builder now; a second reference here
	// would keep the recovered day's graph alive past its rotation.
	in.cfg.restored = nil
	in.day = in.builder.Day()
	in.version.Store(cfg.restoredVersion)
	in.dayNow.Store(int64(in.day))
	in.folded.Store(int64(in.builder.NumObservations()))
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

// notify rings shard s's doorbell without ever blocking; a token
// already waiting is enough.
func (in *Ingester) notify(shard int) {
	select {
	case in.wake[shard] <- struct{}{}:
	default:
	}
}

// eventSource is one producer's attachment to the shards: an SPSC ring
// per shard, plus per-shard pending buffers the binary path uses to
// publish whole frames in one batch. Each Consume loop and each Tailer
// owns exactly one, which is what keeps the rings single-producer.
type eventSource struct {
	in    *Ingester
	rings []*eventRing
	pend  [][]logio.Event
	// machineShard and domainShard cache graph.ShardOf per stream symbol,
	// so a name the segb1 stream numbered is hashed once per connection.
	// One table per routing key: queries route by machine, resolutions by
	// the normalized domain, and one symbol may serve as both. Only the
	// source's own goroutine touches them.
	machineShard, domainShard symTable
	// wm is the source's watermark frontier (nil when watermarks are
	// off); advanced on every dispatch.
	wm *obs.SourceMark
}

// newSource attaches a fresh source to every shard. name labels the
// source kind ("stream", "binary", "tail", "tracedns") for watermark
// attribution; parallel connections of one kind share a frontier.
func (in *Ingester) newSource(name string) *eventSource {
	s := &eventSource{
		in:    in,
		rings: make([]*eventRing, in.cfg.Workers),
		pend:  make([][]logio.Event, in.cfg.Workers),
	}
	if wm := in.cfg.Watermarks; wm != nil {
		s.wm = wm.Source(name)
		wm.Register(obs.WatermarkGraphApply, name)
		if in.hasWAL {
			wm.Register(obs.WatermarkWALAppend, name)
		}
	}
	in.ringMu.Lock()
	for i := range s.rings {
		s.rings[i] = newEventRing(in.cfg.QueueDepth)
		s.rings[i].source = name
		cur := *in.shardRings[i].Load()
		next := make([]*eventRing, 0, len(cur)+1)
		next = append(append(next, cur...), s.rings[i])
		in.shardRings[i].Store(&next)
	}
	in.ringMu.Unlock()
	return s
}

// close marks every ring closed (the producer is done) and wakes the
// workers so drained rings retire promptly.
func (s *eventSource) close() {
	for i, r := range s.rings {
		r.close()
		s.in.notify(i)
	}
}

// retireRings drops closed, drained rings from shard s's set.
func (in *Ingester) retireRings(shard int) {
	in.ringMu.Lock()
	cur := *in.shardRings[shard].Load()
	next := make([]*eventRing, 0, len(cur))
	for _, r := range cur {
		if !(r.isClosed() && r.empty()) {
			next = append(next, r)
		}
	}
	in.shardRings[shard].Store(&next)
	in.ringMu.Unlock()
}

// parseChunkLines is how many parsed lines one "parse" flight-recorder
// trace accumulates before flushing. Per-line traces would flood the
// recorder; per-line durations still feed the stage histogram
// individually.
const parseChunkLines = 256

// parseMeter folds per-line parse timings into the tracer: every line
// feeds the parse stage histogram, and each chunk of parseChunkLines
// lines becomes one single-span trace in the flight recorder. A nil
// *parseMeter (tracing disabled) no-ops.
type parseMeter struct {
	tr     *obs.Tracer
	source string
	start  time.Time
	total  time.Duration
	lines  int
}

func newParseMeter(tr *obs.Tracer, source string) *parseMeter {
	if tr == nil {
		return nil
	}
	return &parseMeter{tr: tr, source: source}
}

// observe books lines parsed lines at a representative per-line
// duration d — the sampled form logio.ReadEventsObserved and the frame
// decoder deliver (one timing stands in for the group it covers).
func (m *parseMeter) observe(d time.Duration, lines int) {
	if lines <= 0 {
		return
	}
	est := d * time.Duration(lines)
	if m.lines == 0 {
		m.start = time.Now().Add(-est)
	}
	m.tr.ObserveStageN(obs.StageParse, d, lines)
	m.total += est
	m.lines += lines
	if m.lines >= parseChunkLines {
		m.flush()
	}
}

// flush ships the accumulated chunk as one completed trace.
func (m *parseMeter) flush() {
	if m == nil || m.lines == 0 {
		return
	}
	m.tr.RecordRoot(obs.StageParse, m.start, m.total, map[string]string{
		"lines":  strconv.Itoa(m.lines),
		"source": m.source,
	})
	m.lines, m.total = 0, 0
}

// Consume parses one event stream and dispatches its records to the
// shards, returning when the reader is exhausted, the input is malformed
// (a line-numbered error), or Shutdown begins. It never blocks on a slow
// shard. Multiple Consume calls may run concurrently (one per TCP
// connection); each gets its own set of shard rings.
//
// The stream format is auto-detected: input starting with the segb1
// magic decodes as binary frames (malformed frames are counted as
// parse errors and skipped), anything else parses as text lines.
func (in *Ingester) Consume(r io.Reader) error {
	in.consumers.Add(1)
	defer in.consumers.Done()
	select {
	case <-in.closing:
		return ErrShuttingDown
	default:
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	// Sniff before attaching the source so the watermark frontier is
	// attributed to the right source kind from the first event.
	if sniff, _ := br.Peek(len(logio.BinaryMagic)); string(sniff) == logio.BinaryMagic {
		src := in.newSource("binary")
		defer src.close()
		return in.consumeBinary(br, src)
	}
	src := in.newSource("stream")
	defer src.close()
	return in.consumeText(br, src)
}

// consumeText runs the text line protocol for one source.
func (in *Ingester) consumeText(r io.Reader, src *eventSource) error {
	meter := newParseMeter(in.cfg.Tracer, "stream")
	var observe func(time.Duration, int)
	if meter != nil {
		observe = meter.observe
	}
	err := logio.ReadEventsObserved(r, func(e logio.Event) error {
		select {
		case <-in.closing:
			return ErrShuttingDown
		default:
		}
		src.dispatch(e)
		return nil
	}, observe)
	meter.flush()
	if err != nil && !errors.Is(err, ErrShuttingDown) {
		inc(in.m.ParseErrors)
	}
	return err
}

// consumeBinary runs the segb1 frame protocol for one source. Records
// are staged into per-shard pending buffers and batch-published at
// frame boundaries, so the ring's atomics are paid per batch instead of
// per event. Frame-granular decode failures count as parse errors and
// the stream continues; only a desynced or failing stream aborts.
func (in *Ingester) consumeBinary(r io.Reader, src *eventSource) error {
	meter := newParseMeter(in.cfg.Tracer, "binary")
	dec := logio.NewEventDecoder(r)
	defer dec.Release()
	dec.OnFrameError = func(error) { inc(in.m.ParseErrors) }
	dec.AfterFrame = func(records int, took time.Duration) {
		src.flushAll()
		if meter != nil && records > 0 {
			meter.observe(took/time.Duration(records), records)
		}
	}
	err := dec.Run(func(e *logio.Event) error {
		select {
		case <-in.closing:
			return ErrShuttingDown
		default:
		}
		src.dispatchBatched(e)
		return nil
	})
	// Flush whatever the aborted frame staged, so every decoded event is
	// accounted for (published, shed, or dropped) exactly once.
	src.flushAll()
	meter.flush()
	if err != nil && !errors.Is(err, ErrShuttingDown) {
		inc(in.m.ParseErrors)
	}
	return err
}

// shardOf routes an event by machine hash (queries) or domain hash
// (resolutions), so one machine's events stay ordered. The hash is
// graph.ShardOf; it runs once per stream symbol, and per event only for
// names the stream did not number.
func (s *eventSource) shardOf(e *logio.Event) int {
	sym, cache := e.MachineSym, &s.machineShard
	if e.Kind == logio.EventResolution {
		sym, cache = e.DomainSym, &s.domainShard
	}
	if shard, ok := cache.get(sym); ok {
		return int(shard)
	}
	shard := graph.ShardOf(eventKey(e), len(s.rings))
	cache.put(sym, int32(shard))
	return shard
}

// eventKey is the routing key of an event: machine for queries, domain
// for resolutions (see graph.ShardOf).
func eventKey(e *logio.Event) string {
	if e.Kind == logio.EventResolution {
		return e.Domain
	}
	return e.Machine
}

// dispatch routes one event to its shard ring. The fast path is a
// lock-free publish; a full ring falls through to the shed policy.
func (s *eventSource) dispatch(e logio.Event) {
	s.wm.Advance(e.Day)
	shard := s.shardOf(&e)
	for {
		ok, wake := s.rings[shard].publish1(e)
		if wake {
			s.in.notify(shard)
		}
		if ok || !s.awaitRoom(shard, 1) {
			return
		}
	}
}

// dispatchBatchSize caps a per-shard pending buffer between frame
// flushes so a shard-skewed frame still publishes incrementally.
const dispatchBatchSize = 256

// dispatchBatched stages one event for batch publication; the batch
// flushes when full or at the next frame boundary.
func (s *eventSource) dispatchBatched(e *logio.Event) {
	s.wm.Advance(e.Day)
	shard := s.shardOf(e)
	s.pend[shard] = append(s.pend[shard], *e)
	if len(s.pend[shard]) >= dispatchBatchSize {
		s.flushShard(shard)
	}
}

// flushAll publishes every pending per-shard batch.
func (s *eventSource) flushAll() {
	for shard := range s.pend {
		if len(s.pend[shard]) > 0 {
			s.flushShard(shard)
		}
	}
}

// flushShard batch-publishes shard's pending events. When the ring fills
// mid-batch the remainder waits on the shed policy once per refill — not
// once per event — and goes out in as few publishes as the ring allows.
func (s *eventSource) flushShard(shard int) {
	pend := s.pend[shard]
	for rest := pend; ; {
		n, wake := s.rings[shard].publish(rest)
		if wake {
			s.in.notify(shard)
		}
		if rest = rest[n:]; len(rest) == 0 || !s.awaitRoom(shard, len(rest)) {
			break
		}
	}
	// Release references before reuse so shed events do not linger.
	clear(pend)
	s.pend[shard] = pend[:0]
}

// awaitRoom handles a full shard ring with n events still to publish: it
// reports true once the ring has a free slot again, or false when the
// daemon is shutting down: the n events are then counted as dropped and
// the caller must let them go rather than wedge the Consume loop forever.
// Every full ring asserts the ingest_queue overload signal (self-arming:
// sustained pressure keeps re-asserting it, a burst decays after
// queuePressureTTL), then the shed policy decides. Shedding
// unacknowledged events is reserved for the overloaded state under an
// explicit policy; otherwise the source blocks, which is the backpressure
// a TCP sender feels as a stalled read loop — and the only throttle there
// is.
func (s *eventSource) awaitRoom(shard, n int) bool {
	in, r := s.in, s.rings[shard]
	if h := in.cfg.Health; h != nil {
		h.SetFor(healthSignalQueue, health.Overloaded, "shard queue full", queuePressureTTL)
	}
	// Under drop-oldest, ask the worker to evict the oldest queued event
	// (the producer cannot pop an SPSC ring), then wait for the slot: under
	// overload the most recent observation is the one that keeps the live
	// graph current. One per wait, however many events are waiting — the
	// worker frees a whole batch behind the eviction, and a ring that
	// fills again asks again. The worker clears the request unserved if
	// the ring drained on its own first.
	if h := in.cfg.Health; in.cfg.ShedPolicy == ShedDropOldest && h != nil && h.Overloaded() {
		r.evict.Add(1)
		in.notify(shard)
	}
	for spin := 0; r.full(); spin++ {
		select {
		case <-in.closing:
			addN(in.m.EventsDropped, int64(n))
			return false
		default:
		}
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return true
}

// shedN counts n events shed by the overload policy.
func (in *Ingester) shedN(reason string, n int64) {
	if in.m.EventsShed != nil {
		addN(in.m.EventsShed[reason], n)
	}
}

// batchSize bounds how many queued events a worker applies per lock
// acquisition, amortizing the per-batch bookkeeping.
const batchSize = 512

// worker drains one shard until shutdown. A panic anywhere in the
// drain path (apply, a rotation hook, a metrics callback) is recovered
// and counted, and the worker resumes draining: one poisonous batch
// must not take the whole shard — let alone the daemon — down.
func (in *Ingester) worker(shard int) {
	defer in.workers.Done()
	buf := make([]logio.Event, batchSize)
	for !in.drainShard(shard, buf) {
	}
}

// drainShard sweeps the shard's rings, blocking on the doorbell when
// everything is empty, and returns true once shutdown has begun and the
// rings are drained. It returns false when a recovered panic aborted
// the loop; the caller restarts it.
func (in *Ingester) drainShard(shard int, buf []logio.Event) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			inc(in.m.Panics)
		}
	}()
	for {
		if in.sweepShard(shard, buf) > 0 {
			continue
		}
		select {
		case <-in.wake[shard]:
		case <-in.stopWorkers:
			// Producers are gone (Shutdown waits for them before closing
			// stopWorkers): once a sweep comes up empty, so is the shard.
			if in.sweepShard(shard, buf) == 0 {
				return true
			}
		}
	}
}

// sweepShard makes one pass over the shard's rings: serving drop-oldest
// eviction requests, applying queued events in batches, and retiring
// rings whose producer closed and whose queue drained. Returns how many
// events it handled (applied or shed) — zero means the shard was idle.
func (in *Ingester) sweepShard(shard int, buf []logio.Event) (handled int) {
	rings := *in.shardRings[shard].Load()
	retire := false
	for _, r := range rings {
		for {
			// Serve the producer's eviction request only while the ring is
			// actually full; a request that drained on its own is stale.
			// Checked before every batch, not once per sweep: a producer
			// that refills the ring as fast as it drains keeps the worker
			// in this loop for the whole burst, and its requests with it.
			if ev := r.evict.Load(); ev > 0 {
				if r.full() {
					n := r.shedOldest(ev)
					if n > 0 {
						in.shedN(ShedDropOldest, int64(n))
						r.evict.Add(^uint64(n - 1)) // subtract n
						handled += n
					}
				} else {
					r.evict.Store(0)
				}
			}
			n := r.consume(buf)
			if n == 0 {
				break
			}
			in.apply(buf[:n], r, shard)
			handled += n
		}
		if r.isClosed() && r.empty() {
			retire = true
		}
	}
	if retire {
		in.retireRings(shard)
	}
	return handled
}

// finishedEpoch is the last graph of a day that rotated out, at a
// version of its own. rotate keeps the newest one for
// SnapshotSince, so the events applied after the day's last pass still
// reach a classify pass; apply hands the same graph to OnRotate.
type finishedEpoch struct {
	day     int
	g       *graph.Graph
	version uint64
	// prepared runs PrepareSnapshot on g exactly once, whichever of the
	// rotating worker and a SnapshotSince caller gets there first; the
	// other waits for it.
	prepared sync.Once
}

func (f *finishedEpoch) prepare(hook func(*graph.Graph)) {
	if hook != nil {
		f.prepared.Do(func() { hook(f.g) })
	}
}

// walFlushBytes caps one WAL record: a batch whose serialized lines
// exceed it is split across several records. The flush triggers after an
// appended line crosses the threshold, so a record can reach
// walFlushBytes + one maximum-size event line — the constant must keep
// that sum under wal.MaxRecordBytes (asserted in tests) or batches
// holding large resolution lines would be rejected by wal.Append.
const walFlushBytes = 256 << 10

// apply folds a batch of events into the live epoch, rotating when a
// later day appears. The batch is cut into day segments: each segment
// applies under the epoch read lock plus its shard's lock, and a
// later-day boundary rotates the epoch under the write lock before the
// next segment runs. Each batch is one graph_apply trace; the WAL flushes
// inside it appear as wal_append child spans. r is the ring the batch was
// swept from — it names the producer kind and owns the stream's symbol
// cache — and shard the shard it belongs to, whose stage it feeds.
func (in *Ingester) apply(batch []logio.Event, r *eventRing, shard int) {
	if in.cfg.ApplyHook != nil {
		in.cfg.ApplyHook()
	}
	_, span := in.cfg.Tracer.StartSpan(context.Background(), obs.StageGraphApply)
	applied, rotations, walOK := in.applyEvents(batch, &r.nodes, shard, span, false)
	span.SetAttr("events", len(batch))
	span.SetAttr("applied", applied)
	if len(rotations) > 0 {
		span.SetAttr("rotations", len(rotations))
	}
	span.End()

	if wm := in.cfg.Watermarks; wm != nil {
		maxDay := batch[0].Day
		for _, e := range batch[1:] {
			if e.Day > maxDay {
				maxDay = e.Day
			}
		}
		wm.Ack(obs.WatermarkGraphApply, r.source, maxDay)
		// The WAL ack only advances when every flush in the batch landed;
		// a failed append leaves the wal_append watermark behind, which is
		// exactly the durability lag the gauge should show.
		if in.hasWAL && walOK {
			wm.Ack(obs.WatermarkWALAppend, r.source, maxDay)
		}
	}

	addN(in.m.EventsIngested, applied)
	in.publishGauges()
	for _, f := range rotations {
		// Finalized epochs get the same preparation as served snapshots
		// (label application), so rotation hooks can classify them.
		f.prepare(in.cfg.PrepareSnapshot)
		if in.cfg.OnRotate != nil {
			in.cfg.OnRotate(f.day, f.g)
		}
	}
}

// applyEvents runs a batch's day segments on shard, rotating the epoch
// between them, and returns the events applied, the epochs it finished
// and whether every WAL append landed. replay marks a WAL replay at
// startup, which counts nothing the live stream counts.
func (in *Ingester) applyEvents(batch []logio.Event, nodes *symNodes, shard int, span *obs.Span, replay bool) (applied int64, rotations []*finishedEpoch, walOK bool) {
	walOK = true
	for off := 0; off < len(batch); {
		n, segApplied, segWALOK := in.applySegment(batch[off:], in.shards[shard], nodes, span, replay)
		off += n
		applied += segApplied
		walOK = walOK && segWALOK
		if off < len(batch) {
			// batch[off] belongs to a later day than the epoch the segment
			// ran under: rotate forward. rotate no-ops (and the next
			// segment picks the event up) when another worker crossed the
			// boundary first. A multi-day jump still causes one rotation.
			if f := in.rotate(batch[off].Day, replay); f != nil {
				rotations = append(rotations, f)
			}
		}
	}
	return applied, rotations, walOK
}

// applySegment applies the longest batch prefix that belongs to the
// current epoch (events at or before the epoch day) and reports how many
// events it consumed; a shorter-than-batch return means the next event
// starts a later day and the caller must rotate.
func (in *Ingester) applySegment(events []logio.Event, sh *graphShard, nodes *symNodes, span *obs.Span, replay bool) (n int, applied int64, walOK bool) {
	in.epochMu.RLock()
	defer in.epochMu.RUnlock()
	day := in.day
	n = len(events)
	for i := range events {
		if events[i].Day > day {
			n = i
			break
		}
	}
	if n == 0 {
		return 0, 0, true
	}
	applied, walOK = in.shardApply(sh, nodes, events[:n], day, span, replay)
	return n, applied, walOK
}

// markActive records that domain, and with it its e2LD, was queried on day.
func markActive(act *activity.Log, day int, domain, e2ld string) {
	act.MarkDomain(day, domain)
	act.MarkE2LD(day, e2ld)
}

// firstQuery reports whether this shard sees day-builder domain d queried
// for the first time today, and marks it seen. Callers hold sh.mu.
func (sh *graphShard) firstQuery(d int32) bool {
	w, bit := int(d>>6), uint64(1)<<(d&63)
	for w >= len(sh.queried) {
		sh.queried = append(sh.queried, 0)
	}
	if sh.queried[w]&bit != 0 {
		return false
	}
	sh.queried[w] |= bit
	return true
}

// shardApply is one shard's apply critical section: names interned in
// the day builder, ids staged, first-query activity marks and the
// shard's WAL stripe move together under the shard lock. The unlock is
// deferred so a panic inside an append cannot leave the shard mutex held
// when the worker's recovery kicks in. Callers hold epochMu for read; day
// is the epoch day they read under it. walOK reports whether every stripe
// append succeeded.
//
// Names reach the stage as day-builder node ids. nodes — the cache of the
// ring the events came from — answers for every name the segb1 stream
// numbered and this ring has applied before; any other name (first sight
// of a symbol on this ring, a literal, every event of a text, tail or
// trace_dns source, whose symbols are 0) takes the name table's intern
// and fills its slot: one loop, with a cache in front of it.
//
// A replayed event older than the epoch was applied live on its own day,
// so replay marks its activity there instead of counting it stale; the
// live stream's counters, the shard metrics and watermarks are left alone.
func (in *Ingester) shardApply(sh *graphShard, nodes *symNodes, events []logio.Event, day int, span *obs.Span, replay bool) (applied int64, walOK bool) {
	start := time.Now() // before the lock: contention is part of apply latency
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.walBuf = sh.walBuf[:0]
	sh.walBatchErr = false
	b, act := in.builder, in.cfg.Activity
	var queries int64
	nodes.bind(day)
	for i := range events {
		e := &events[i]
		if e.Day < day {
			if !replay {
				inc(in.m.EventsStale)
			} else if act != nil && e.Kind == logio.EventQuery {
				markActive(act, e.Day, e.Domain, in.cfg.Suffixes.E2LD(e.Domain))
			}
			continue
		}
		switch e.Kind {
		case logio.EventQuery:
			d := nodes.domainID(b, e.DomainSym, e.Domain)
			sh.stage.AddEdge(nodes.machineID(b, e.MachineSym, e.Machine), d)
			queries++
			// A mark is idempotent per (day, name): only the domain's first
			// query in this shard's day pays for it.
			if act != nil && sh.firstQuery(d) {
				markActive(act, day, e.Domain, b.E2LD(d))
			}
		case logio.EventResolution:
			d := nodes.domainID(b, e.DomainSym, e.Domain)
			for _, ip := range e.IPs {
				sh.stage.AddAddress(d, ip)
			}
		}
		if sh.wal != nil {
			in.appendShardWAL(sh, e, span)
		}
		applied++
	}
	if sh.wal != nil {
		in.flushShardWAL(sh, span)
	}
	if applied > 0 {
		// Inside the shard lock, after the appends: a fold that wins the
		// lock next takes every event this version accounts for.
		in.version.Add(1)
		sh.staged.Add(queries)
		if !replay {
			addN(sh.events, applied)
			if sh.applySeconds != nil {
				sh.applySeconds.Observe(time.Since(start).Seconds())
			}
			in.cfg.Watermarks.Ack(obs.WatermarkShardApply, sh.wmSource, day)
		}
	}
	return applied, !sh.walBatchErr
}

// rotate finalizes the current epoch and starts newDay: every shard's
// stage is folded into the day builder, whose snapshot is the epoch's
// final graph, and a fresh builder starts the new day. Returns nil when
// another worker already rotated to (or past) newDay.
func (in *Ingester) rotate(newDay int, replay bool) *finishedEpoch {
	in.epochMu.Lock()
	defer in.epochMu.Unlock()
	if newDay <= in.day {
		return nil
	}
	// The day's last graph is one more snapshot of the day builder, at a
	// version of its own, so a pass that last looked at an earlier
	// version of this day is handed it (SnapshotSince).
	v := in.version.Add(1)
	taken, _ := in.takeStages()
	g := in.foldSnapshot(taken)
	f := &finishedEpoch{day: in.day, g: g, version: v}
	for _, sh := range in.shards {
		sh.mu.Lock()
		clear(sh.queried)
		sh.mu.Unlock()
	}
	in.builder = graph.NewBuilder(in.cfg.Network, newDay, in.cfg.Suffixes)
	in.folded.Store(0)
	in.day = newDay
	in.dayNow.Store(int64(newDay))
	// The new day's snapshots carry versions past the finished day's.
	in.version.Add(1)
	// The finished epoch is kept for SnapshotSince (replacing an older one
	// nobody got through) — but only if anyone ever calls it: a daemon
	// that never classifies would carry yesterday's graph for nothing.
	in.finishedMu.Lock()
	if in.sinceCallers {
		in.finished = f
	}
	in.finishedMu.Unlock()
	if !replay {
		inc(in.m.Rotations)
	}
	if in.cfg.Activity != nil {
		in.cfg.Activity.Trim(newDay - in.cfg.ActivityKeepDays)
	}
	return f
}

// takeStages swaps every shard's stage for an empty one, shard by shard
// under that shard's lock — O(1) — and reads the stripe's WAL end there,
// so pos and the stages agree by construction; no worker waits for
// another shard's batch. Callers hold snapMu and epochMu for read, or
// epochMu for write.
func (in *Ingester) takeStages() ([]graph.Stage, []wal.Pos) {
	var pos []wal.Pos
	taken := make([]graph.Stage, len(in.shards))
	for s, sh := range in.shards {
		sh.mu.Lock()
		taken[s], sh.stage = sh.stage, graph.Stage{}
		sh.staged.Store(0)
		if sh.wal != nil {
			pos = append(pos, sh.wal.End())
		}
		sh.mu.Unlock()
	}
	return taken, pos
}

// foldSnapshot folds taken stages into the day builder — appends, the one
// radix sort and dedup, without shard locks — and snapshots it. Every id a
// taken stage holds was interned before its swap, so the snapshot covers
// it. Callers hold what takeStages needs.
func (in *Ingester) foldSnapshot(taken []graph.Stage) *graph.Graph {
	in.builder.Fold(taken)
	g := in.builder.Snapshot()
	in.folded.Store(int64(g.NumEdges()))
	return g
}

// publishGauges refreshes the graph size gauges.
func (in *Ingester) publishGauges() {
	in.epochMu.RLock()
	b := in.builder
	in.epochMu.RUnlock()
	setGauge(in.m.GraphMachines, int64(b.NumMachines()))
	setGauge(in.m.GraphDomains, int64(b.NumDomains()))
	n := in.folded.Load()
	for _, sh := range in.shards {
		n += sh.staged.Load()
	}
	setGauge(in.m.GraphObservations, n)
}

func setGauge(g *metrics.Gauge, v int64) {
	if g != nil {
		g.SetInt(v)
	}
}

// appendShardWAL renders one event line straight into the shard's WAL
// record being built, cutting a record whenever the buffer crosses
// walFlushBytes. Callers hold the shard lock.
func (in *Ingester) appendShardWAL(sh *graphShard, e *logio.Event, span *obs.Span) {
	before := len(sh.walBuf)
	sh.walBuf = logio.AppendEvent(sh.walBuf, *e)
	// If this line pushed the buffered record past the WAL's cap, cut the
	// record before it: wal.Append rejects oversized records wholesale,
	// which would silently void durability for every event already in
	// the buffer. Unreachable while walFlushBytes + logio.MaxLineBytes
	// fits in a record (asserted in tests), but cheap insurance against
	// drift.
	if before > 0 && len(sh.walBuf) > wal.MaxRecordBytes {
		line := sh.walBuf[before:]
		sh.walBuf = sh.walBuf[:before]
		in.flushShardWAL(sh, span)
		sh.walBuf = append(sh.walBuf, line...) // moves the line down to offset 0
	}
	if len(sh.walBuf) >= walFlushBytes {
		in.flushShardWAL(sh, span)
	}
}

// flushShardWAL appends the shard's buffered event lines as one record
// on its WAL stripe. Append failures are counted, not fatal: segugiod
// stays available at reduced durability rather than dying on a full
// disk. The append shows up as a wal_append child of the batch's
// graph_apply span. Callers hold the shard lock.
func (in *Ingester) flushShardWAL(sh *graphShard, span *obs.Span) {
	if len(sh.walBuf) == 0 {
		return
	}
	start := time.Now()
	_, err := sh.wal.Append(sh.walBuf)
	took := time.Since(start)
	if err != nil {
		inc(in.m.WALAppendFailures)
		sh.walBatchErr = true
		if h := in.cfg.Health; h != nil {
			h.SetFor(healthSignalWAL, health.Degraded,
				fmt.Sprintf("wal append failed: %v", err), walFaultTTL)
		}
	} else if h := in.cfg.Health; h != nil && took >= slowWALAppend {
		h.SetFor(healthSignalWAL, health.Degraded,
			fmt.Sprintf("wal append took %s", took.Round(time.Millisecond)), walFaultTTL)
	}
	span.RecordChild(obs.StageWALAppend, took)
	sh.walBuf = sh.walBuf[:0]
}

// Day returns the current epoch day, without waiting for a rotation in
// progress (it answers the finishing day until the rotation completes).
func (in *Ingester) Day() int {
	return int(in.dayNow.Load())
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

// Snapshot returns an immutable view of the live graph plus its version,
// read before the stages are taken, so the graph holds every event at or
// below it: every shard's stage is folded into the day builder, which
// snapshots (see foldSnapshot). Snapshots are cached: repeated calls without
// intervening ingestion return the same graph. The PrepareSnapshot hook
// has already run on the returned graph.
func (in *Ingester) Snapshot() (*graph.Graph, uint64) {
	in.snapMu.Lock()
	defer in.snapMu.Unlock()

	in.epochMu.RLock()
	v, day := in.version.Load(), in.day
	if in.snap != nil && v == in.snapVersion && day == in.snapDay {
		in.epochMu.RUnlock()
		in.cfg.Watermarks.Ack(obs.WatermarkSnapshot, obs.WatermarkSourceAll, day)
		return in.snap, v
	}
	start := time.Now()
	taken, _ := in.takeStages()
	g := in.foldSnapshot(taken)
	in.epochMu.RUnlock()

	if in.cfg.PrepareSnapshot != nil {
		in.cfg.PrepareSnapshot(g)
		// Tell the day builder this snapshot is labeled so the next one
		// can relabel incrementally against it. The builder ignores the
		// call if a rotation slipped in between.
		in.epochMu.RLock()
		in.builder.MarkLabeled(g)
		in.epochMu.RUnlock()
	}
	if in.m.SnapshotSeconds != nil {
		in.m.SnapshotSeconds.Observe(time.Since(start).Seconds())
	}
	in.snap, in.snapVersion, in.snapDay = g, v, day
	in.cfg.Watermarks.Ack(obs.WatermarkSnapshot, obs.WatermarkSourceAll, day)
	return g, v
}

// SnapshotSince is Snapshot for a caller that classifies every snapshot
// it is handed and passes back the version of the last one it completed.
// After a rotation, a call whose since predates the finished day's last
// graph is handed that graph instead of the live one, so what was applied
// between the day's last pass and its rotation is still classified and
// audited under the day it belongs to. The handover repeats until a call
// arrives with since at or past the finished epoch's version: only then
// has the caller completed a pass over it (a pass that aborted or found
// the graph unlabeled comes back with its old since and is handed the
// same graph again). That call returns the live epoch. Snapshot never
// returns a finished epoch.
//
// The finished epoch is looked up after the live snapshot is taken: a
// rotation that lands while the call waits for the snapshot (it holds the
// epoch lock the snapshot needs) has set it by then, and its day is
// handed over instead of being skipped — the live snapshot stays cached
// for the call that follows.
//
// The Delta is always the zero Delta: every pass classifies its snapshot
// whole. It stays in the signature for the end-to-end benchmark harness
// (bench/trace.go), which reads it, until that harness is next changed.
func (in *Ingester) SnapshotSince(since uint64) (*graph.Graph, uint64, graph.Delta) {
	in.finishedMu.Lock()
	in.sinceCallers = true
	in.finishedMu.Unlock()
	g, v := in.Snapshot()
	in.finishedMu.Lock()
	f := in.finished
	if f != nil && since >= f.version {
		in.finished, f = nil, nil // the caller has processed it
	}
	in.finishedMu.Unlock()
	if f != nil {
		f.prepare(in.cfg.PrepareSnapshot)
		return f.g, f.version, graph.Delta{}
	}
	return g, v, graph.Delta{}
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

// Tailer follows one event file at line granularity and remembers how
// far it got: the byte offset just past the last fully read line, plus
// the identity of the file that offset belongs to. The state survives
// across Run calls, so a supervisor that restarts a failed tail source
// resumes exactly where the previous run stopped instead of re-ingesting
// — and double-counting — everything the file already delivered.
// Malformed lines are counted and skipped rather than aborting the
// stream, so one bad line cannot put a supervised tail into an infinite
// restart/re-ingest loop. A Tailer is not safe for concurrent Run calls.
type Tailer struct {
	in       *Ingester
	src      *eventSource
	path     string
	interval time.Duration
	meter    *parseMeter // nil when tracing is disabled
	// parse maps one trimmed line to an event; ok=false with a nil
	// error skips the line silently. Nil wraps logio.ParseEvent — the
	// seam the trace_dns adapter plugs its JSONL mapping into.
	parse func(line string) (e logio.Event, ok bool, err error)

	// Parse-metering sampler state: 1 line in logio.ParseSampleEvery is
	// timed and stands in for the pending lines it covers.
	lastD   time.Duration
	haveD   bool
	pending int

	// offset is the resume point: every line before it was fully read
	// (dispatched or deliberately skipped). fi identifies the file the
	// offset belongs to; nil means start from scratch.
	offset int64
	fi     os.FileInfo
}

// NewTailer builds a Tailer for path polling at interval (default
// 500ms). Pass its Run to Supervise to get a tail source that survives
// transient I/O failures without replaying consumed data. The tailer
// holds its shard rings for the ingester's lifetime (they retire at
// Shutdown), so build one per tailed path, not one per attempt.
func (in *Ingester) NewTailer(path string, interval time.Duration) *Tailer {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return &Tailer{in: in, src: in.newSource("tail"), path: path, interval: interval, meter: newParseMeter(in.cfg.Tracer, "tail")}
}

// errFileChanged signals that the tailed path was rotated (new inode) or
// truncated in place: the current file generation is exhausted and the
// tail must reopen from offset zero.
var errFileChanged = errors.New("ingest: tailed file rotated or truncated")

// Run tails the file until ctx is canceled or the ingester shuts down
// (both return nil) or an I/O error occurs (returned, so a supervisor
// restarts the tail; the consumed offset is preserved for the next Run).
func (t *Tailer) Run(ctx context.Context) error {
	for {
		err := t.runFile(ctx)
		switch {
		case errors.Is(err, errFileChanged):
			// New file generation behind the same path: start it from
			// byte zero.
			t.fi, t.offset = nil, 0
			inc(t.in.m.TailReopens)
		case errors.Is(err, ErrShuttingDown) || ctx.Err() != nil:
			return nil
		default:
			return err
		}
	}
}

// runFile consumes one generation of the tailed file, resuming at the
// remembered offset when the file on disk is still the one the offset
// was measured against (same inode, not shrunk below it).
func (t *Tailer) runFile(ctx context.Context) error {
	f, err := os.Open(t.path)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	start := int64(0)
	if t.fi != nil && os.SameFile(t.fi, fi) && fi.Size() >= t.offset {
		start = t.offset
	}
	if start > 0 {
		if _, err := f.Seek(start, io.SeekStart); err != nil {
			f.Close()
			return err
		}
	}
	t.fi, t.offset = fi, start
	r := &followReader{ctx: ctx, closing: t.in.closing, path: t.path, f: f, fi: fi, offset: start, interval: t.interval}
	defer f.Close()
	return t.consume(r)
}

// consume reads line-delimited events from r, dispatching each one and
// advancing t.offset past every fully read line — the offset therefore
// always names a line boundary that is safe to resume from. Lines that
// fail to parse, and lines longer than logio.MaxLineBytes, are counted
// as parse errors and skipped.
func (t *Tailer) consume(r *followReader) error {
	in := t.in
	in.consumers.Add(1)
	defer in.consumers.Done()
	defer t.flushMeter()
	br := bufio.NewReaderSize(r, 64<<10)
	var line []byte
	discarding := false // inside an over-long line, dropping until '\n'
	var lineBytes int64 // bytes of the line accumulated so far
	for {
		chunk, rerr := br.ReadSlice('\n')
		lineBytes += int64(len(chunk))
		if !discarding {
			line = append(line, chunk...)
			if len(line) > logio.MaxLineBytes {
				discarding, line = true, line[:0]
			}
		}
		switch {
		case rerr == nil:
			if !discarding {
				t.processLine(line)
			} else {
				inc(in.m.ParseErrors)
			}
			t.offset += lineBytes
			line, discarding, lineBytes = line[:0], false, 0
		case errors.Is(rerr, bufio.ErrBufferFull):
			continue
		case errors.Is(rerr, errFileChanged):
			// The file was swapped or truncated underneath us. Treat an
			// unterminated final line as complete (mirrors how scanners
			// treat EOF without a trailing newline); the caller reopens
			// the new generation from offset zero, resetting t.offset.
			if !discarding && len(line) > 0 {
				t.processLine(line)
			}
			return errFileChanged
		case errors.Is(rerr, io.EOF):
			// followReader reports EOF only when the context ended or the
			// ingester began shutting down: leave any unterminated partial
			// line unconsumed so the next run re-reads it from t.offset.
			return nil
		default:
			return rerr
		}
		select {
		case <-in.closing:
			return ErrShuttingDown
		default:
		}
	}
}

// processLine parses one event line and dispatches it; blank lines and
// comments are ignored, malformed lines counted and dropped. Parse
// metering is sampled: 1 line in logio.ParseSampleEvery is timed (the
// first always), and the measurement is booked for the whole group.
func (t *Tailer) processLine(raw []byte) {
	line := strings.TrimSpace(string(raw))
	if line == "" || strings.HasPrefix(line, "#") {
		return
	}
	sample := t.meter != nil && (!t.haveD || t.pending+1 >= logio.ParseSampleEvery)
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	var (
		e   logio.Event
		ok  bool
		err error
	)
	if t.parse != nil {
		e, ok, err = t.parse(line)
	} else {
		e, err = logio.ParseEvent(line)
		ok = err == nil
	}
	if sample {
		t.lastD = time.Since(t0)
		t.haveD = true
	}
	if err != nil {
		inc(t.in.m.ParseErrors)
		return
	}
	if !ok {
		return
	}
	if t.meter != nil {
		t.pending++
		if sample {
			t.meter.observe(t.lastD, t.pending)
			t.pending = 0
		}
	}
	t.src.dispatch(e)
}

// flushMeter books lines parsed since the last sample, then ships the
// meter's open chunk.
func (t *Tailer) flushMeter() {
	if t.pending > 0 && t.haveD {
		t.meter.observe(t.lastD, t.pending)
		t.pending = 0
	}
	t.meter.flush()
}

// followReader blocks at EOF, polling for appended bytes until its
// context is canceled or the ingester shuts down, at which point it
// reports EOF. Each poll checks whether the path was rotated (different
// inode) or truncated in place (size shrank below the offset already
// read) and reports errFileChanged so the Tailer can reopen with a fresh
// offset baseline.
type followReader struct {
	ctx      context.Context
	closing  <-chan struct{}
	path     string
	f        *os.File
	fi       os.FileInfo
	offset   int64
	interval time.Duration
}

func (r *followReader) Read(p []byte) (int, error) {
	for {
		n, err := r.f.Read(p)
		r.offset += int64(n)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		if r.checkRotated() {
			return 0, errFileChanged
		}
		select {
		case <-r.ctx.Done():
			return 0, io.EOF
		case <-r.closing:
			return 0, io.EOF
		case <-time.After(r.interval):
		}
	}
}

// checkRotated re-stats the tailed path and reports whether the file
// underneath has been swapped or truncated. A stat failure (rotated away
// and not yet recreated) is not a change: the reader keeps polling until
// a successful stat sees the new inode.
func (r *followReader) checkRotated() bool {
	fi, err := os.Stat(r.path)
	if err != nil {
		return false
	}
	return !os.SameFile(r.fi, fi) || fi.Size() < r.offset
}
