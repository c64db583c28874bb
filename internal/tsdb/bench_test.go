package tsdb

import (
	"fmt"
	"testing"
	"time"

	"segugio/internal/metrics"
)

// benchRegistry approximates the daemon's registry shape: a few dozen
// scalar series plus the per-stage latency histograms, which dominate
// the sample count through their bucket children.
func benchRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	for i := 0; i < 24; i++ {
		c := reg.NewCounter(fmt.Sprintf("bench_c%d_total", i), "C.", "")
		c.Add(int64(i) * 17)
	}
	for i := 0; i < 12; i++ {
		g := reg.NewGauge(fmt.Sprintf("bench_g%d", i), "G.", "")
		g.SetInt(int64(i))
	}
	for i := 0; i < 8; i++ {
		h := reg.NewHistogram("bench_stage_seconds", "H.", metrics.Labels("stage", fmt.Sprintf("s%d", i)), nil)
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) * 0.001)
		}
	}
	return reg
}

// BenchmarkScrape is the self-scrape overhead gate: a steady-state
// scrape of a daemon-sized registry must stay within the per-scrape
// allocation budget enforced by scripts/bench-allocs.sh (series columns
// are allocated once, the sample buffer is reused).
func BenchmarkScrape(b *testing.B) {
	reg := benchRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Retention: time.Hour})
	st.Scrape() // allocate columns + grow the sample buffer once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Scrape()
	}
	if n := len(st.Series()); n == 0 {
		b.Fatal("no series stored")
	}
}

// BenchmarkQueryRate measures a windowed counter-rate query against a
// full retention ring.
func BenchmarkQueryRate(b *testing.B) {
	reg := benchRegistry()
	st := New(Config{Registry: reg, Interval: time.Second, Retention: 720 * time.Second})
	for i := 0; i < st.Capacity(); i++ {
		st.Scrape()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.RateOver("bench_c3_total", "", "", "", 0); !ok {
			b.Fatal("rate query failed")
		}
	}
}

// BenchmarkQueryQuantile measures histogram-quantile estimation from
// bucket deltas across a full ring.
func BenchmarkQueryQuantile(b *testing.B) {
	reg := benchRegistry()
	// The quantile is taken over bucket increases, so the queried
	// histogram must move between scrapes.
	labels := metrics.Labels("stage", "queried")
	h := reg.NewHistogram("bench_stage_seconds", "H.", labels, nil)
	st := New(Config{Registry: reg, Interval: time.Second, Retention: 720 * time.Second})
	for i := 0; i < st.Capacity(); i++ {
		h.Observe(float64(i%100) * 0.001)
		st.Scrape()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.QuantileOver("bench_stage_seconds", labels, 0.95, 0); !ok {
			b.Fatal("quantile query failed")
		}
	}
}
