package ingest

import (
	"bufio"
	"context"
	"errors"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/logio"
	"segugio/internal/obs"
)

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
	// error skips the line silently. parseEventLine, or the trace_dns
	// adapter's JSONL mapping.
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
	return &Tailer{in: in, src: in.newSource("tail"), path: path, interval: interval, meter: newParseMeter(in.cfg.Tracer, "tail"), parse: parseEventLine}
}

// parseEventLine is a Tailer's parse for native event lines.
func parseEventLine(line string) (logio.Event, bool, error) {
	e, err := logio.ParseEvent(line)
	return e, err == nil, err
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

// errTailStopped is how a followReader reports that its context ended or
// the ingester began shutting down.
var errTailStopped = errors.New("ingest: tail stopped")

// consume reads line-delimited events from r, dispatching each one and
// advancing t.offset past every fully read line — the offset therefore
// always names a line boundary that is safe to resume from. Lines that
// fail to parse, and lines longer than logio.MaxLineBytes, are counted
// as parse errors and skipped. r is a followReader, or any reader whose
// EOF ends the stream (trace_dns on stdin).
func (t *Tailer) consume(r io.Reader) error {
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
		case errors.Is(rerr, errFileChanged), errors.Is(rerr, io.EOF):
			// The file was swapped or truncated underneath us (the caller
			// reopens the new generation from offset zero, resetting
			// t.offset), or a plain reader's stream ended. Treat an
			// unterminated final line as complete, as scanners treat EOF
			// without a trailing newline.
			if !discarding && len(line) > 0 {
				t.processLine(line)
			}
			if errors.Is(rerr, errFileChanged) {
				return errFileChanged
			}
			return nil
		case errors.Is(rerr, errTailStopped):
			// Leave any unterminated partial line unconsumed so the next
			// run re-reads it from t.offset.
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
	e, ok, err := t.parse(line)
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
// reports errTailStopped. Each poll checks whether the path was rotated (different
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
			return 0, errTailStopped
		case <-r.closing:
			return 0, errTailStopped
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
