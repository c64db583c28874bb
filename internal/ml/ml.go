// Package ml implements the supervised learning machinery Segugio's
// behavior-based classifier is built on, from scratch over the standard
// library: histogram-based CART decision trees, random forests (the
// paper's primary classifier choice, [9]), and L2-regularized logistic
// regression (the liblinear-style alternative, [10]).
//
// Models score feature vectors with a malware probability in [0, 1]; the
// deployment threshold is chosen downstream from an ROC curve (package
// eval), exactly as the paper tunes its detection threshold.
package ml

import (
	"errors"
	"fmt"
)

// Model is a binary classifier producing a continuous malware score.
type Model interface {
	// Fit trains on feature matrix X (rows are examples) with labels y
	// (0 = benign, 1 = malware).
	Fit(X [][]float64, y []int) error
	// Score returns the malware score of one example in [0, 1]. Calling
	// Score before a successful Fit returns 0.
	Score(x []float64) float64
}

// Training-input validation errors.
var (
	ErrNoData      = errors.New("ml: empty training set")
	ErrDimMismatch = errors.New("ml: inconsistent dimensions")
	ErrBadLabel    = errors.New("ml: labels must be 0 or 1")
	ErrOneClass    = errors.New("ml: training set contains a single class")
)

// validate checks the common Fit preconditions and returns the feature
// count.
func validate(X [][]float64, y []int) (int, error) {
	if len(X) == 0 {
		return 0, ErrNoData
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("%w: %d rows, %d labels", ErrDimMismatch, len(X), len(y))
	}
	nf := len(X[0])
	if nf == 0 {
		return 0, fmt.Errorf("%w: zero features", ErrDimMismatch)
	}
	classes := [2]bool{}
	for i, row := range X {
		if len(row) != nf {
			return 0, fmt.Errorf("%w: row %d has %d features, want %d", ErrDimMismatch, i, len(row), nf)
		}
		if y[i] != 0 && y[i] != 1 {
			return 0, fmt.Errorf("%w: label %d at row %d", ErrBadLabel, y[i], i)
		}
		classes[y[i]] = true
	}
	if !classes[0] || !classes[1] {
		return 0, ErrOneClass
	}
	return nf, nil
}

// BatchScorer is implemented by models that score a whole feature matrix
// at once — the random forest's ScoreBatch shards rows across workers.
type BatchScorer interface {
	ScoreBatch(X [][]float64) []float64
}

// ScoreAll scores every row of X. Models implementing BatchScorer use
// their own batch path; per-sample models take a plain loop. Both invoke
// the model's Score on each row, so the result is bit-identical either way.
func ScoreAll(m Model, X [][]float64) []float64 {
	if bs, ok := m.(BatchScorer); ok {
		return bs.ScoreBatch(X)
	}
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = m.Score(row)
	}
	return out
}

// SelectColumns returns a copy of X restricted to the given feature
// columns, used by the feature-group ablation experiments (paper
// Section IV-B). Rows share one flat backing array, capped per row.
func SelectColumns(X [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(X))
	backing := make([]float64, len(X)*len(cols))
	for i, row := range X {
		sel := backing[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			sel[j] = row[c]
		}
		out[i] = sel
	}
	return out
}
