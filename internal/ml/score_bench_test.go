package ml

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// scoreBenchState holds a forest fitted once and a large scoring matrix,
// shared by every BenchmarkScoreBatch variant.
var scoreBenchState struct {
	once sync.Once
	rf   *RandomForest
	X    [][]float64
	err  error
}

func scoreBenchSetup() {
	const (
		trainRows = 2000
		scoreRows = 20000
		nf        = 11
	)
	rng := rand.New(rand.NewSource(17))
	synth := func(rows int) ([][]float64, []int) {
		backing := make([]float64, rows*nf)
		X := make([][]float64, rows)
		y := make([]int, rows)
		for i := range X {
			X[i] = backing[i*nf : (i+1)*nf : (i+1)*nf]
			y[i] = i % 2
			for j := range X[i] {
				v := rng.Float64()
				if y[i] == 1 && j < 4 {
					v = v*0.5 + 0.5
				}
				X[i][j] = v
			}
		}
		return X, y
	}
	X, y := synth(trainRows)
	rf := NewRandomForest(RandomForestConfig{NumTrees: 64, Seed: 3})
	if err := rf.Fit(X, y); err != nil {
		scoreBenchState.err = err
		return
	}
	scoreBenchState.rf = rf
	scoreBenchState.X, _ = synth(scoreRows)
}

// BenchmarkScoreBatch measures forest batch scoring across worker
// counts; the workers=1 variant is the serial baseline the parallel runs
// are compared against.
func BenchmarkScoreBatch(b *testing.B) {
	scoreBenchState.once.Do(scoreBenchSetup)
	if scoreBenchState.err != nil {
		b.Fatal(scoreBenchState.err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rf := *scoreBenchState.rf
			rf.cfg.Workers = workers
			X := scoreBenchState.X
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := rf.ScoreBatch(X)
				if len(out) != len(X) {
					b.Fatal("short result")
				}
			}
		})
	}
}

// BenchmarkScoreAllFallback measures the per-sample loop used by models
// without a native batch path (logistic regression).
func BenchmarkScoreAllFallback(b *testing.B) {
	scoreBenchState.once.Do(scoreBenchSetup)
	if scoreBenchState.err != nil {
		b.Fatal(scoreBenchState.err)
	}
	X := scoreBenchState.X
	lr := NewLogisticRegression(LogisticRegressionConfig{Seed: 7})
	yb := make([]int, len(X))
	for i := range yb {
		yb[i] = i % 2
	}
	if err := lr.Fit(X, yb); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ScoreAll(lr, X)
		if len(out) != len(X) {
			b.Fatal("short result")
		}
	}
}
