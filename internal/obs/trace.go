package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"segugio/internal/metrics"
)

// Pipeline stage names. Spans carrying one of these names feed the
// per-stage latency histograms (segugiod_stage_seconds{stage=...}) the
// tracer registers at construction; other span names are recorded in
// traces only.
const (
	StageParse          = "parse"
	StageWALAppend      = "wal_append"
	StageGraphApply     = "graph_apply"
	StageSnapshot       = "snapshot"
	StageFeatureExtract = "feature_extract"
	StageClassify       = "classify"
	StageTrackerPass    = "tracker_pass"
)

// Stages lists every pipeline stage in pipeline order.
func Stages() []string {
	return []string{
		StageParse, StageWALAppend, StageGraphApply, StageSnapshot,
		StageFeatureExtract, StageClassify, StageTrackerPass,
	}
}

// SpanRecord is one completed span inside a trace. Parent is the ID of
// the enclosing span, or -1 for the root.
type SpanRecord struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"`
	Name     string            `json:"name"`
	OffsetMS float64           `json:"offsetMs"` // start offset from the trace start
	DurMS    float64           `json:"durMs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// TraceRecord is one completed trace: a root span plus every child that
// finished before it. Spans appear in completion order.
type TraceRecord struct {
	ID    string       `json:"id"`
	Root  string       `json:"root"`
	Start time.Time    `json:"start"`
	DurMS float64      `json:"durMs"`
	Spans []SpanRecord `json:"spans"`
}

// TracerConfig parameterizes a Tracer. The zero value is usable:
// defaults fill in below.
type TracerConfig struct {
	// RingSize bounds both flight-recorder rings — the N most recent and
	// the N slowest completed traces (default 32).
	RingSize int
	// SlowThreshold logs any trace whose root span exceeds it through
	// Logger at Warn level. Zero disables slow-trace logging.
	SlowThreshold time.Duration
	// Registry, when non-nil, gets one segugiod_stage_seconds histogram
	// per pipeline stage (Stages), fed by every completed span and
	// ObserveStageN call of that stage. Nil keeps the flight recorder
	// alone.
	Registry *metrics.Registry
	// Logger receives slow-trace warnings; nil discards them.
	Logger *slog.Logger
}

// Tracer records spans into bounded in-memory rings (the flight
// recorder) and feeds the per-stage histograms. A nil *Tracer is a valid
// no-op: StartSpan returns a nil span whose methods all no-op, so
// instrumented code never branches on whether tracing is enabled.
type Tracer struct {
	cfg    TracerConfig
	nextID atomic.Uint64
	// stages maps a stage name to its histogram; nil without a
	// Registry, read-only after NewTracer.
	stages map[string]*metrics.Histogram

	mu        sync.Mutex
	recent    []TraceRecord // ring, recentPos is the next write slot
	recentPos int
	recentN   int
	slowest   []TraceRecord // sorted by DurMS descending, len <= RingSize
}

// NewTracer builds a Tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 32
	}
	t := &Tracer{cfg: cfg, recent: make([]TraceRecord, cfg.RingSize)}
	if cfg.Registry != nil {
		t.stages = make(map[string]*metrics.Histogram, len(Stages()))
		for _, stage := range Stages() {
			t.stages[stage] = cfg.Registry.NewHistogram("segugiod_stage_seconds",
				"Pipeline stage latency in seconds, by stage.",
				metrics.Labels("stage", stage), nil)
		}
	}
	return t
}

// activeTrace accumulates spans until its root ends.
type activeTrace struct {
	id    string
	start time.Time

	mu        sync.Mutex
	nextSpan  int
	spans     []SpanRecord
	finalized bool
}

// Span is one in-flight operation. Obtain with StartSpan, finish with
// End. A nil *Span (from a nil Tracer) no-ops every method.
type Span struct {
	tracer *Tracer
	trace  *activeTrace
	id     int
	parent int
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]string
}

// spanKey carries the current span through a context.
type spanKey struct{}

// StartSpan opens a span named name. If ctx already carries a span, the
// new one becomes its child inside the same trace; otherwise a new
// trace begins and this span is its root (the trace completes — and
// lands in the flight recorder — when the root ends). The returned
// context carries the new span for further nesting.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var tr *activeTrace
	parentID := -1
	if parent != nil && parent.trace != nil {
		tr = parent.trace
		parentID = parent.id
	} else {
		tr = &activeTrace{id: fmt.Sprintf("t%012x", t.nextID.Add(1)), start: time.Now()}
	}
	tr.mu.Lock()
	id := tr.nextSpan
	tr.nextSpan++
	tr.mu.Unlock()
	s := &Span{tracer: t, trace: tr, id: id, parent: parentID, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr attaches a key/value attribute to the span (rendered with
// fmt.Sprint). Attributes show up in the flight-recorder dump.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = fmt.Sprint(value)
	s.mu.Unlock()
}

// RecordChild attaches an already-measured child operation to the span:
// a SpanRecord of the given duration ending now. This is how stages
// timed by other subsystems (e.g. the classifier's internal
// feature-extraction timing) join the trace without re-plumbing their
// clocks.
func (s *Span) RecordChild(name string, d time.Duration) {
	if s == nil {
		return
	}
	tr := s.trace
	tr.mu.Lock()
	id := tr.nextSpan
	tr.nextSpan++
	rec := SpanRecord{
		ID:       id,
		Parent:   s.id,
		Name:     name,
		OffsetMS: ms(time.Since(tr.start) - d),
		DurMS:    ms(d),
	}
	if !tr.finalized {
		tr.spans = append(tr.spans, rec)
	}
	tr.mu.Unlock()
	s.tracer.ObserveStageN(name, d, 1)
}

// End finishes the span. Ending the root span completes the trace:
// it is pushed into the recent ring, competes for the slowest ring, and
// is logged when it exceeds the slow threshold. Spans that end after
// their root are dropped from the record (the trace has already
// shipped), but still feed their stage histogram.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	tr := s.trace
	s.mu.Lock()
	attrs := s.attrs
	s.mu.Unlock()
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		OffsetMS: ms(s.start.Sub(tr.start)),
		DurMS:    ms(d),
		Attrs:    attrs,
	}
	tr.mu.Lock()
	if !tr.finalized {
		tr.spans = append(tr.spans, rec)
	}
	var done *TraceRecord
	if s.parent == -1 && !tr.finalized {
		tr.finalized = true
		done = &TraceRecord{
			ID: tr.id, Root: s.name, Start: tr.start, DurMS: ms(d),
			Spans: tr.spans,
		}
	}
	tr.mu.Unlock()
	s.tracer.ObserveStageN(s.name, d, 1)
	if done != nil {
		s.tracer.record(*done, d)
	}
}

// RecordRoot records a single-span completed trace directly — the shape
// used for work accumulated outside a live span, such as a chunk of
// parsed event lines.
func (t *Tracer) RecordRoot(name string, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	tr := TraceRecord{
		ID: fmt.Sprintf("t%012x", t.nextID.Add(1)), Root: name, Start: start, DurMS: ms(d),
		Spans: []SpanRecord{{ID: 0, Parent: -1, Name: name, DurMS: ms(d), Attrs: attrs}},
	}
	t.record(tr, d)
}

// ObserveStageN books n samples of d each into stage's histogram — the
// scaled form sampled hot paths use (one measured line standing in for
// the n lines it covers). Names outside Stages are not booked.
func (t *Tracer) ObserveStageN(stage string, d time.Duration, n int) {
	if t == nil {
		return
	}
	if h := t.stages[stage]; h != nil {
		h.ObserveN(d.Seconds(), int64(n))
	}
}

// record files one completed trace into the flight recorder.
func (t *Tracer) record(tr TraceRecord, d time.Duration) {
	t.mu.Lock()
	t.recent[t.recentPos] = tr
	t.recentPos = (t.recentPos + 1) % len(t.recent)
	if t.recentN < len(t.recent) {
		t.recentN++
	}
	// Slowest ring: insertion-sort by duration, descending, bounded.
	i := len(t.slowest)
	for i > 0 && t.slowest[i-1].DurMS < tr.DurMS {
		i--
	}
	if i < t.cfg.RingSize {
		t.slowest = append(t.slowest, TraceRecord{})
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = tr
		if len(t.slowest) > t.cfg.RingSize {
			t.slowest = t.slowest[:t.cfg.RingSize]
		}
	}
	t.mu.Unlock()

	if t.cfg.SlowThreshold > 0 && d >= t.cfg.SlowThreshold && t.cfg.Logger != nil {
		t.cfg.Logger.Warn("slow trace",
			"trace", tr.ID, "root", tr.Root,
			"duration_ms", tr.DurMS, "spans", len(tr.Spans),
			"threshold_ms", ms(t.cfg.SlowThreshold))
	}
}

// Dump is the flight-recorder snapshot served at /debug/obs/traces.
type Dump struct {
	// SlowThresholdMS is the slow-trace logging threshold (0: disabled).
	SlowThresholdMS float64 `json:"slowThresholdMs"`
	// Recent holds the newest completed traces, newest first.
	Recent []TraceRecord `json:"recent"`
	// Slowest holds the slowest completed traces, slowest first.
	Slowest []TraceRecord `json:"slowest"`
}

// Dump copies the flight recorder.
func (t *Tracer) Dump() Dump {
	if t == nil {
		return Dump{Recent: []TraceRecord{}, Slowest: []TraceRecord{}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := Dump{
		SlowThresholdMS: ms(t.cfg.SlowThreshold),
		Recent:          make([]TraceRecord, 0, t.recentN),
		Slowest:         append([]TraceRecord(nil), t.slowest...),
	}
	for i := 0; i < t.recentN; i++ {
		pos := (t.recentPos - 1 - i + len(t.recent)) % len(t.recent)
		d.Recent = append(d.Recent, t.recent[pos])
	}
	if d.Slowest == nil {
		d.Slowest = []TraceRecord{}
	}
	return d
}

// ms renders a duration in (fractional) milliseconds, clamped at zero
// for synthetic starts that land before the trace start.
func ms(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e6
}
