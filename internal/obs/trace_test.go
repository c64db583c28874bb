package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"segugio/internal/metrics"
)

// stageCounts reads the observation count of every stage histogram the
// tracer registered in reg.
func stageCounts(reg *metrics.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, s := range reg.AppendSamples(nil) {
		if s.Name == "segugiod_stage_seconds" && s.Suffix == "_count" {
			stage := strings.TrimSuffix(strings.TrimPrefix(s.Labels, `{stage="`), `"}`)
			out[stage] = int64(s.Value)
		}
	}
	return out
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.StartSpan(context.Background(), "noop")
	span.SetAttr("k", 1)
	span.RecordChild("child", time.Millisecond)
	span.End()
	tr.RecordRoot("manual", time.Now(), time.Millisecond, nil)
	tr.ObserveStageN(StageParse, time.Millisecond, 1)
	d := tr.Dump()
	if len(d.Recent) != 0 || len(d.Slowest) != 0 {
		t.Fatalf("nil tracer dump = %+v", d)
	}
	if ctx == nil {
		t.Fatal("nil tracer must still return the context")
	}
}

func TestSpanTreeAndDump(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracer(TracerConfig{RingSize: 8, Registry: reg})

	ctx, root := tr.StartSpan(context.Background(), StageTrackerPass)
	root.SetAttr("domains", 4)
	_, snap := tr.StartSpan(ctx, StageSnapshot)
	snap.End()
	ctx2, cls := tr.StartSpan(ctx, StageClassify)
	cls.RecordChild(StageFeatureExtract, 2*time.Millisecond)
	cls.End()
	_ = ctx2
	root.End()

	d := tr.Dump()
	if len(d.Recent) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(d.Recent))
	}
	trace := d.Recent[0]
	if trace.Root != StageTrackerPass || len(trace.Spans) != 4 {
		t.Fatalf("trace = %+v", trace)
	}
	byName := map[string]SpanRecord{}
	for _, s := range trace.Spans {
		byName[s.Name] = s
	}
	rootRec := byName[StageTrackerPass]
	if rootRec.Parent != -1 {
		t.Fatalf("root parent = %d", rootRec.Parent)
	}
	if rootRec.Attrs["domains"] != "4" {
		t.Fatalf("root attrs = %v", rootRec.Attrs)
	}
	if byName[StageSnapshot].Parent != rootRec.ID {
		t.Fatalf("snapshot parent = %d, want root %d", byName[StageSnapshot].Parent, rootRec.ID)
	}
	if byName[StageFeatureExtract].Parent != byName[StageClassify].ID {
		t.Fatal("feature_extract must be a child of classify")
	}
	if byName[StageFeatureExtract].DurMS < 1.9 {
		t.Fatalf("RecordChild duration = %v ms", byName[StageFeatureExtract].DurMS)
	}

	counts := stageCounts(reg)
	for _, s := range []string{StageSnapshot, StageClassify, StageFeatureExtract, StageTrackerPass} {
		if counts[s] != 1 {
			t.Fatalf("stage %s observed %d times, want 1 (counts %v)", s, counts[s], counts)
		}
	}

	// The dump must serialize cleanly (it backs an HTTP endpoint).
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("dump does not marshal: %v", err)
	}
}

func TestRecentRingBoundAndOrder(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 4})
	for i := 0; i < 10; i++ {
		tr.RecordRoot(fmt.Sprintf("t%d", i), time.Now(), time.Duration(i)*time.Millisecond, nil)
	}
	d := tr.Dump()
	if len(d.Recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(d.Recent))
	}
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if d.Recent[i].Root != want {
			t.Fatalf("recent[%d] = %s, want %s (newest first)", i, d.Recent[i].Root, want)
		}
	}
}

func TestSlowestRingKeepsSlowest(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 3})
	for _, msDur := range []int{5, 1, 9, 3, 7, 2} {
		tr.RecordRoot(fmt.Sprintf("d%d", msDur), time.Now(), time.Duration(msDur)*time.Millisecond, nil)
	}
	d := tr.Dump()
	if len(d.Slowest) != 3 {
		t.Fatalf("slowest = %d, want 3", len(d.Slowest))
	}
	for i, want := range []string{"d9", "d7", "d5"} {
		if d.Slowest[i].Root != want {
			t.Fatalf("slowest[%d] = %s, want %s", i, d.Slowest[i].Root, want)
		}
	}
}

func TestSlowTraceLogged(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(TracerConfig{RingSize: 2, SlowThreshold: time.Millisecond, Logger: logger})

	tr.RecordRoot("fast", time.Now(), 10*time.Microsecond, nil)
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged: %s", buf.String())
	}
	tr.RecordRoot("slow", time.Now(), 5*time.Millisecond, nil)
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("slow-trace log not JSON: %v (%s)", err, buf.String())
	}
	if obj["msg"] != "slow trace" || obj["root"] != "slow" {
		t.Fatalf("slow-trace log = %v", obj)
	}
}

func TestLateChildDropsButStillObserves(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracer(TracerConfig{RingSize: 2, Registry: reg})
	ctx, root := tr.StartSpan(context.Background(), StageTrackerPass)
	_, child := tr.StartSpan(ctx, StageClassify)
	root.End() // completes the trace before the child finishes
	child.End()

	d := tr.Dump()
	if len(d.Recent) != 1 || len(d.Recent[0].Spans) != 1 {
		t.Fatalf("late child must not join the shipped trace: %+v", d.Recent)
	}
	counts := stageCounts(reg)
	if count := counts[StageTrackerPass] + counts[StageClassify]; count != 2 {
		t.Fatalf("stage observations = %d, want 2 (root + late child)", count)
	}
}

func TestTracerConcurrency(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracer(TracerConfig{RingSize: 16, Registry: reg})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, root := tr.StartSpan(context.Background(), StageTrackerPass)
				_, c := tr.StartSpan(ctx, StageClassify)
				c.SetAttr("i", i)
				c.End()
				root.End()
				tr.Dump()
			}
		}(i)
	}
	wg.Wait()
	if d := tr.Dump(); len(d.Recent) != 16 {
		t.Fatalf("recent = %d, want full ring", len(d.Recent))
	}
	if counts := stageCounts(reg); counts[StageTrackerPass] != 400 || counts[StageClassify] != 400 {
		t.Fatalf("stage counts = %v, want 400 roots and 400 children", counts)
	}
}

// TestObserveStageN covers the batched stage-observation path sampled
// instrumentation uses: one call books the whole group into the stage's
// histogram; a non-positive n, a name outside the stage set, a tracer
// without a registry and a nil tracer book nothing.
func TestObserveStageN(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracer(TracerConfig{Registry: reg})
	tr.ObserveStageN(StageParse, time.Millisecond, 32)
	tr.ObserveStageN(StageParse, time.Millisecond, 1)
	tr.ObserveStageN(StageParse, time.Millisecond, 0)  // no-op
	tr.ObserveStageN(StageParse, time.Millisecond, -3) // no-op
	tr.ObserveStageN("http.classify", time.Millisecond, 4)
	counts := stageCounts(reg)
	if counts[StageParse] != 33 || len(counts) != len(Stages()) {
		t.Fatalf("stage counts = %v; want 33 parse samples and one histogram per stage", counts)
	}

	NewTracer(TracerConfig{}).ObserveStageN(StageParse, time.Millisecond, 4)
	var nilTr *Tracer
	nilTr.ObserveStageN(StageParse, time.Millisecond, 4)
}
