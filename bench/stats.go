package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of values by
// linear interpolation between closest ranks; values need not be sorted.
// An empty input gives NaN.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// how the benchmark contract measures spread. Fewer than two values give
// the single value (or NaN) three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Exclusive method, as CPython writes it: position i*(n+1)/4,
		// 1-based, clamped to [1, n-1], delta taken after the clamp.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median — the
// quantity the contract compares with a metric's bound.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 || math.IsNaN(q2) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// highestSupportedPercentile is the highest of the reporting percentiles
// that still has at least ten samples beyond it; with too few samples
// for any, it is the median (0 means not even that: no samples).
func highestSupportedPercentile(n int) float64 {
	if n == 0 {
		return 0
	}
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 10
		}
	}
	return 50
}

// summary is the per-metric variance record every output carries.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	q1, q2, q3 := quartiles(values)
	return summary{Median: q2, Q1: q1, Q3: q3, N: len(values), Values: values}
}
