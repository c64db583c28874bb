package ingest

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/obs"
)

// stageStat reads the observation count and sum of stage's
// segugiod_stage_seconds histogram from reg.
func stageStat(reg *metrics.Registry, stage string) (count int64, sum float64) {
	labels := metrics.Labels("stage", stage)
	for _, s := range reg.AppendSamples(nil) {
		if s.Name != "segugiod_stage_seconds" || s.Labels != labels {
			continue
		}
		switch s.Suffix {
		case "_count":
			count = int64(s.Value)
		case "_sum":
			sum = s.Value
		}
	}
	return count, sum
}

// TestIngestStageObservations verifies that a traced ingester reports
// parse and graph_apply stage durations and files graph_apply traces
// into the flight recorder.
func TestIngestStageObservations(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := obs.NewTracer(obs.TracerConfig{RingSize: 8, Registry: reg})
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Tracer: tr})
	if err := in.Consume(strings.NewReader(
		"q\t1\tm1\ta.example.com\nq\t1\tm2\tb.example.com\nr\t1\ta.example.com\t10.0.0.1\n")); err != nil {
		t.Fatal(err)
	}
	in.Shutdown()

	if n, _ := stageStat(reg, obs.StageParse); n != 3 {
		t.Fatalf("parse observations = %d, want 3", n)
	}
	if n, _ := stageStat(reg, obs.StageGraphApply); n == 0 {
		t.Fatal("no graph_apply observations")
	}

	d := tr.Dump()
	found := false
	for _, trc := range d.Recent {
		if trc.Root == obs.StageGraphApply {
			found = true
			if trc.Spans[len(trc.Spans)-1].Attrs["events"] == "" {
				t.Fatalf("graph_apply span lacks events attr: %+v", trc.Spans)
			}
		}
	}
	if !found {
		t.Fatalf("no graph_apply trace in flight recorder: %+v", d.Recent)
	}
}

// TestParseMeterChunks verifies that the parse meter ships one trace per
// parseChunkLines lines plus a final partial chunk at flush.
func TestParseMeterChunks(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{RingSize: 16})
	m := newParseMeter(tr, "test")
	for i := 0; i < parseChunkLines+3; i++ {
		m.observe(time.Microsecond, 1)
	}
	m.flush()
	var parses []obs.TraceRecord
	for _, trc := range tr.Dump().Recent {
		if trc.Root == obs.StageParse {
			parses = append(parses, trc)
		}
	}
	if len(parses) != 2 {
		t.Fatalf("parse traces = %d, want 2 (full chunk + partial)", len(parses))
	}
	// Newest first: the partial flush is first.
	if parses[0].Spans[0].Attrs["lines"] != "3" || parses[1].Spans[0].Attrs["lines"] != "256" {
		t.Fatalf("chunk line counts = %v / %v",
			parses[0].Spans[0].Attrs, parses[1].Spans[0].Attrs)
	}
	if parses[0].Spans[0].Attrs["source"] != "test" {
		t.Fatalf("source attr = %v", parses[0].Spans[0].Attrs)
	}

	// A nil meter (tracing off) must be inert.
	var nilMeter *parseMeter
	nilMeter.flush()
}

// TestTailerSampledParseMetering verifies the tailer's 1-in-N parse
// sampling books exact line counts: every parsed line is accounted for
// in the parse histogram, while the clock is consulted only about
// lines/parseSampleEvery times.
func TestTailerSampledParseMetering(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := obs.NewTracer(obs.TracerConfig{RingSize: 8, Registry: reg})
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Tracer: tr, Metrics: m})
	defer in.Shutdown()
	tl := in.NewTailer(t.TempDir()+"/unused.log", time.Second)

	// Each line must open exactly one sample on the tailer's own meter:
	// the sampler's skip counter steps down by one per untimed line and
	// resets after a timed one (skip == 0 going in).
	const lines = 3*parseSampleEvery + 5 // 101
	timed := 0
	for i := 0; i < lines; i++ {
		before := tl.meter.skip
		if err := tl.processLine([]byte("q\t1\tm1\ta.example.com")); err != nil {
			t.Fatal(err)
		}
		want := before - 1
		if before == 0 {
			timed, want = timed+1, parseSampleEvery-1
		}
		if tl.meter.skip != want {
			t.Fatalf("line %d: sampler skip %d -> %d, want %d (one lineStart per line)",
				i, before, tl.meter.skip, want)
		}
	}
	if want := lines/parseSampleEvery + 2; timed > want {
		t.Fatalf("clock read for %d lines, want <= %d (sampled 1-in-%d)",
			timed, want, parseSampleEvery)
	}
	// Blank lines and comments are skipped before metering.
	skip := tl.meter.skip
	tl.processLine([]byte("   "))
	tl.processLine([]byte("# comment"))
	if tl.meter.skip != skip {
		t.Fatalf("blank and comment lines moved the sampler: skip %d -> %d", skip, tl.meter.skip)
	}
	tl.meter.flush()

	if booked, _ := stageStat(reg, obs.StageParse); booked != lines {
		t.Fatalf("booked %d parse samples, want exactly %d", booked, lines)
	}

	// A malformed line counts a parse error and books nothing extra.
	tl.finishLine(1, []byte("not an event line"), false)
	tl.meter.flush()
	if booked, _ := stageStat(reg, obs.StageParse); booked != lines {
		t.Fatalf("malformed line changed booked count to %d", booked)
	}
	if got := m.ParseErrors.Value(); got == 0 {
		t.Fatal("malformed line did not count a parse error")
	}
}

// TestConsumeMetersEveryLine: a text stream books each parsed line in the
// parse histogram exactly once, whatever its length against the sampling
// interval.
func TestConsumeMetersEveryLine(t *testing.T) {
	for _, n := range []int{1, 2, parseSampleEvery - 1, parseSampleEvery, parseSampleEvery + 1, 3*parseSampleEvery + 5} {
		reg := metrics.NewRegistry()
		in := New(Config{Network: "net", StartDay: 1, Workers: 1,
			Tracer: obs.NewTracer(obs.TracerConfig{Registry: reg})})
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "q\t1\tm%d\ta.example.com\n", i)
		}
		err := in.Consume(strings.NewReader(b.String()))
		in.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		if booked, _ := stageStat(reg, obs.StageParse); booked != int64(n) {
			t.Fatalf("%d lines booked %d parse samples", n, booked)
		}
	}
}

// TestConsumeTraceDNSMetersEveryLine: trace_dns on a reader books one
// parse observation per line that yields an event — not zero, as when
// its line loop ran without a meter.
func TestConsumeTraceDNSMetersEveryLine(t *testing.T) {
	reg := metrics.NewRegistry()
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 2, Workers: 1, Metrics: m,
		Tracer: obs.NewTracer(obs.TracerConfig{Registry: reg})})
	defer in.Shutdown()
	var b strings.Builder
	const queries = 2*parseSampleEvery + 3
	for i := 0; i < queries; i++ {
		fmt.Fprintf(&b, `{"qr":"Q","name":"d%d.example.","src":{"addr":"10.0.0.1"},"timestamp_raw":1000}`+"\n", i)
	}
	b.WriteString("garbage line that is not json\n")
	b.WriteString(`{"qr":"R","name":"quiet.example","timestamp_raw":4000}` + "\n")
	if err := in.ConsumeTraceDNS(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if booked, _ := stageStat(reg, obs.StageParse); booked != queries {
		t.Fatalf("booked %d parse samples, want one per parsed line (%d)", booked, queries)
	}
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d, want 1", m.ParseErrors.Value())
	}
}

// TestConsumeBinaryParseClockSkipsRingWaits: a segb1 frame whose
// mid-frame flushes wait on a full ring, behind a shard worker stalled
// for stall, books its decode time only — not the wait.
func TestConsumeBinaryParseClockSkipsRingWaits(t *testing.T) {
	const stall = 300 * time.Millisecond
	reg := metrics.NewRegistry()
	var once sync.Once
	in := New(Config{Network: "net", StartDay: 3, Workers: 1, QueueDepth: 16,
		Tracer:    obs.NewTracer(obs.TracerConfig{Registry: reg}),
		ApplyHook: func() { once.Do(func() { time.Sleep(stall) }) }})
	defer in.Shutdown()
	events := binTestEvents(2000)
	start := time.Now()
	if err := in.Consume(bytes.NewReader(binStream(t, events))); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < stall {
		t.Fatalf("Consume took %v, want it held up by the %v stall", took, stall)
	}
	n, sum := stageStat(reg, obs.StageParse)
	if n != int64(len(events)) {
		t.Fatalf("booked %d parse samples, want %d", n, len(events))
	}
	if parse := time.Duration(sum * float64(time.Second)); parse > stall/3 {
		t.Fatalf("parse stage booked %v behind a %v stall, want the decode time alone", parse, stall)
	}
}

// TestConsumeOverlongLineEndsStream: on a text stream a line over
// logio.MaxLineBytes is the stream rule's malformed line: Consume ends
// with an error naming its line, counted as one parse error.
func TestConsumeOverlongLineEndsStream(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	defer in.Shutdown()
	text := "q\t1\tm1\ta.example.com\n" +
		"q\t1\tm2\t" + strings.Repeat("a", logio.MaxLineBytes) + ".example.com\n" +
		"q\t1\tm3\tc.example.com\n"
	err := in.Consume(strings.NewReader(text))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want an error naming line 2, got %v", err)
	}
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d, want 1", m.ParseErrors.Value())
	}
	waitFor(t, "the line before it applied", func() bool { return m.EventsIngested.Value() == 1 })
}
