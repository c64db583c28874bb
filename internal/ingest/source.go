package ingest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
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
	// waited is the time awaitRoom has spent waiting for ring room since
	// the segb1 loop last reset it, which that loop's parse clock leaves
	// out.
	waited time.Duration
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
// recorder; the stage histogram still counts every line.
const parseChunkLines = 256

// parseSampleEvery is the line sampler's interval: a line source times 1
// line in parseSampleEvery and books that timing for the whole group it
// covers, so the clock costs two time.Now() calls per group, not per line.
const parseSampleEvery = 32

// parseMeter is every source's parse clock: it books parse time into the
// parse stage histogram, and each chunk of parseChunkLines lines becomes
// one single-span trace in the flight recorder. A line source brackets
// each parse with lineStart/lineDone (the sampler); segb1 books each
// frame's decode time through observe. A nil *parseMeter (tracing
// disabled) no-ops.
type parseMeter struct {
	tr     *obs.Tracer
	source string
	start  time.Time
	total  time.Duration
	lines  int

	// Line sampler: skip counts the lines left before the next timed
	// one, lastD is the newest timed line's parse time, and pending the
	// parsed lines not yet booked.
	skip    int
	lastD   time.Duration
	pending int
}

func newParseMeter(tr *obs.Tracer, source string) *parseMeter {
	if tr == nil {
		return nil
	}
	return &parseMeter{tr: tr, source: source}
}

// lineStart opens one line's parse: it returns the start time of a line
// the sampler times (the first line, then 1 in parseSampleEvery), or the
// zero time for a line it skips.
func (m *parseMeter) lineStart() time.Time {
	switch {
	case m == nil:
		return time.Time{}
	case m.skip > 0:
		m.skip--
		return time.Time{}
	}
	m.skip = parseSampleEvery - 1
	return time.Now()
}

// lineDone closes the parse lineStart opened. A parsed line (one that
// yielded an event) joins the pending group; a timed line refreshes the
// sample and books the group at it.
func (m *parseMeter) lineDone(t0 time.Time, parsed bool) {
	if m == nil {
		return
	}
	if parsed {
		m.pending++
	}
	if !t0.IsZero() {
		m.lastD = time.Since(t0)
		m.observe(m.lastD, m.pending)
		m.pending = 0
	}
}

// observe books lines parsed lines at a representative per-line duration
// d: the line sampler's timing, or a segb1 frame's mean per record.
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
		m.ship()
	}
}

// flush books the lines parsed since the last sample at that sample, then
// ships the open chunk; a source calls it when its stream ends.
func (m *parseMeter) flush() {
	if m == nil {
		return
	}
	m.observe(m.lastD, m.pending)
	m.pending = 0
	m.ship()
}

// ship files the accumulated chunk as one completed trace.
func (m *parseMeter) ship() {
	if m.lines == 0 {
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
// parse errors and skipped), anything else runs through the Tailer's
// line loop under the stream rule: the first malformed or over-long line
// ends the stream.
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
		return in.endStream(in.consumeBinary(br, src))
	}
	t := in.newLineSource("stream", parseEventLine)
	t.strict = true
	defer t.src.close()
	return in.endStream(t.consume(br))
}

// endStream counts the error that ends a stream source, whatever it is
// short of shutdown, as one parse error, and passes it on.
func (in *Ingester) endStream(err error) error {
	if err != nil && !errors.Is(err, ErrShuttingDown) {
		inc(in.m.ParseErrors)
	}
	return err
}

// consumeBinary runs the segb1 frame protocol for one source. Records
// are staged into per-shard pending buffers and batch-published at
// frame boundaries, so the ring's atomics are paid per batch instead of
// per event. Frame-granular decode failures count as parse errors and
// the stream continues; only a desynced or failing stream aborts. A
// frame's parse time is its decode time less what its mid-frame flushes
// spent waiting for ring room.
func (in *Ingester) consumeBinary(r io.Reader, src *eventSource) error {
	meter := newParseMeter(in.cfg.Tracer, "binary")
	defer meter.flush()
	dec := logio.NewEventDecoder(r)
	defer dec.Release()
	dec.OnFrameError = func(error) { inc(in.m.ParseErrors) }
	dec.AfterFrame = func(records int, took time.Duration) {
		took -= src.waited
		src.flushAll()
		src.waited = 0
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
	t0 := time.Now()
	defer func() { s.waited += time.Since(t0) }()
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

// Tailer is the line loop every line-framed source runs: a text stream
// (Consume), trace_dns JSONL (ConsumeTraceDNS) and a tailed file. Built
// by NewTailer or NewTraceDNSTailer, it follows one file and remembers
// how far it got: the byte offset just past the last fully read line,
// plus the identity of the file that offset belongs to. The state
// survives across Run calls, so a supervisor that restarts a failed tail
// source resumes exactly where the previous run stopped instead of
// re-ingesting — and double-counting — everything the file already
// delivered. A tail or trace_dns source counts and skips a malformed or
// over-long line, so one bad line cannot put a supervised tail into an
// infinite restart/re-ingest loop; a text stream is strict and ends at
// the first one. A Tailer is not safe for concurrent Run calls.
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
	// strict ends the stream at the first malformed or over-long line
	// with a line-numbered error: the text stream's rule.
	strict bool

	// offset is the resume point: every line before it was fully read
	// (dispatched or deliberately skipped). fi identifies the file the
	// offset belongs to; nil means start from scratch.
	offset int64
	fi     os.FileInfo
}

// newLineSource attaches a line source of kind source (which labels its
// watermark frontier and parse traces) parsing lines with parse.
func (in *Ingester) newLineSource(source string, parse func(string) (logio.Event, bool, error)) *Tailer {
	return &Tailer{in: in, src: in.newSource(source), meter: newParseMeter(in.cfg.Tracer, source), parse: parse}
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
	t := in.newLineSource("tail", parseEventLine)
	t.path, t.interval = path, interval
	return t
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

// errLineTooLong is the parse error of a line over logio.MaxLineBytes.
var errLineTooLong = fmt.Errorf("line longer than %d bytes", logio.MaxLineBytes)

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
	t.in.consumers.Add(1)
	defer t.in.consumers.Done()
	f, err := os.Open(t.path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	start := int64(0)
	if t.fi != nil && os.SameFile(t.fi, fi) && fi.Size() >= t.offset {
		start = t.offset
	}
	if start > 0 {
		if _, err := f.Seek(start, io.SeekStart); err != nil {
			return err
		}
	}
	t.fi, t.offset = fi, start
	r := &followReader{ctx: ctx, closing: t.in.closing, path: t.path, f: f, fi: fi, offset: start, interval: t.interval}
	return t.consume(bufio.NewReaderSize(r, 64<<10))
}

// errTailStopped is how a followReader reports that its context ended or
// the ingester began shutting down.
var errTailStopped = errors.New("ingest: tail stopped")

// consume reads line-delimited events from br, dispatching each one and
// advancing t.offset past every fully read line — the offset therefore
// always names a line boundary that is safe to resume from. br reads a
// followReader, or any reader whose EOF ends the stream (a text stream,
// trace_dns on stdin); an unterminated final line counts as complete.
func (t *Tailer) consume(br *bufio.Reader) error {
	defer t.meter.flush()
	var (
		buf        []byte // a line assembled across buffer refills
		discarding bool   // inside an over-long line, dropping until '\n'
		lineBytes  int64  // bytes of the line read so far
		lineNo     int
	)
	for {
		chunk, rerr := br.ReadSlice('\n')
		lineBytes += int64(len(chunk))
		line := chunk // a line read whole is parsed in place
		if discarding || len(buf) > 0 || rerr != nil || len(chunk) > logio.MaxLineBytes {
			if !discarding {
				buf = append(buf, chunk...)
				if len(buf) > logio.MaxLineBytes {
					discarding, buf = true, buf[:0]
				}
			}
			line = buf
		}
		switch {
		case rerr == nil:
			lineNo++
			if err := t.finishLine(lineNo, line, discarding); err != nil {
				return err
			}
			t.offset += lineBytes
			buf, discarding, lineBytes = buf[:0], false, 0
		case errors.Is(rerr, bufio.ErrBufferFull):
			continue
		case errors.Is(rerr, errFileChanged), errors.Is(rerr, io.EOF):
			// The file was swapped or truncated underneath us (the caller
			// reopens the new generation from offset zero, resetting
			// t.offset), or a plain reader's stream ended.
			if discarding || len(line) > 0 {
				if err := t.finishLine(lineNo+1, line, discarding); err != nil {
					return err
				}
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
		case <-t.in.closing:
			return ErrShuttingDown
		default:
		}
	}
}

// finishLine handles line lineNo, complete: it parses and dispatches the
// line, or meets its parse error (an over-long line arrives as tooLong).
// A strict source returns that error, numbered; the others count it as a
// parse error and go on.
func (t *Tailer) finishLine(lineNo int, line []byte, tooLong bool) error {
	err := errLineTooLong
	if !tooLong {
		err = t.processLine(line)
	}
	if err == nil {
		return nil
	}
	if t.strict {
		return fmt.Errorf("ingest: line %d: %w", lineNo, err)
	}
	inc(t.in.m.ParseErrors)
	return nil
}

// processLine parses one line and dispatches its event; blank lines and
// comments are ignored, and a malformed line returns its parse error.
// The parse meter times 1 line in parseSampleEvery.
func (t *Tailer) processLine(raw []byte) error {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || raw[0] == '#' {
		return nil
	}
	line := string(raw)
	t0 := t.meter.lineStart()
	e, ok, err := t.parse(line)
	t.meter.lineDone(t0, ok)
	if ok {
		t.src.dispatch(e)
	}
	return err
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
