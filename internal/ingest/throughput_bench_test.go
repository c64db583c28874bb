package ingest

import (
	"bytes"
	"strings"
	"testing"

	"segugio/internal/logio"
)

// The throughput benchmarks measure the ingest frontend — wire bytes
// through parse/decode, sharding, and ring publish — which is the layer
// this wire format exists for. The graph-apply backend is deliberately
// excluded (rings are sized to hold the whole fixture, so Consume never
// blocks on the workers): its cost is format-independent and measured
// separately by BenchmarkIngestApply. Each op is one full Consume of
// the fixture on a fresh ingester; Shutdown (and the backend drain it
// implies) happens off the clock. The Throughput pair lets the worker
// apply beside Consume, so on a small host it also times the scheduler;
// the Producer pair holds the worker in an ApplyHook until Consume
// returns, so only the frontend runs on the clock.

// throughputEvents is one op's worth of wire traffic. Rings must hold
// all of it, so depth is the next power of two above the event count.
const (
	throughputEvents = 200000
	throughputDepth  = 1 << 18
)

func throughputFixture(b *testing.B) []logio.Event {
	evs := make([]logio.Event, 0, throughputEvents)
	for _, batch := range benchBatches(throughputEvents, 256) {
		evs = append(evs, batch...)
	}
	if len(evs) < throughputEvents {
		b.Fatalf("fixture has %d events", len(evs))
	}
	return evs[:throughputEvents]
}

func benchConsume(b *testing.B, wire []byte, producerOnly bool) {
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := newMetrics()
		cfg := Config{Network: "bench", StartDay: 1, Workers: 1,
			QueueDepth: throughputDepth, Metrics: m}
		release := make(chan struct{})
		if producerOnly {
			cfg.ApplyHook = func() { <-release }
		}
		in := New(cfg)
		b.StartTimer()
		if err := in.Consume(bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		close(release)
		in.Shutdown()
		if got := m.EventsIngested.Value(); got != throughputEvents {
			b.Fatalf("ingested %d events, want %d (dropped %d, parse errors %d)",
				got, throughputEvents, m.EventsDropped.Value(), m.ParseErrors.Value())
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(throughputEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkIngestBinaryThroughput is the headline wire-speed number:
// segb1 frames through auto-detection, zero-copy decode, and ring
// publish. Gated in scripts/bench-allocs.sh (events/s floor).
func BenchmarkIngestBinaryThroughput(b *testing.B) { benchConsume(b, binaryWire(b), false) }

// BenchmarkIngestTextThroughput is the same fixture through the text
// path — the baseline the binary format's speedup is measured against.
func BenchmarkIngestTextThroughput(b *testing.B) { benchConsume(b, textWire(b), false) }

// BenchmarkIngestBinaryProducer and BenchmarkIngestTextProducer are the
// pair above with the worker held until Consume returns: the frontend
// alone. Gated in scripts/bench-allocs.sh (events/s floors).
func BenchmarkIngestBinaryProducer(b *testing.B) { benchConsume(b, binaryWire(b), true) }

func BenchmarkIngestTextProducer(b *testing.B) { benchConsume(b, textWire(b), true) }

func binaryWire(b *testing.B) []byte {
	var buf bytes.Buffer
	enc := logio.NewEventEncoder(&buf)
	for _, e := range throughputFixture(b) {
		if err := enc.Encode(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func textWire(b *testing.B) []byte {
	var sb strings.Builder
	for _, e := range throughputFixture(b) {
		if err := logio.WriteEvent(&sb, e); err != nil {
			b.Fatal(err)
		}
	}
	return []byte(sb.String())
}
