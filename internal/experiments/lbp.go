package experiments

import (
	"fmt"
	"strings"
	"time"

	"segugio/internal/belief"
)

// LBPResult reproduces the Section I comparison against loopy belief
// propagation ([6], Polonium-style inference): on the same test day and
// the same hidden test set, Segugio's feature-based classifier is
// compared with BP marginals computed directly on the behavior graph.
// The paper reports Segugio averaging 45% better accuracy and minutes
// instead of tens of hours.
type LBPResult struct {
	Network string
	Day     int
	// Sparse marks the public-feeds-only labeling variant.
	Sparse bool

	Segugio     CurveSummary
	BP          CurveSummary
	SegugioTime time.Duration // train + classify
	BPTime      time.Duration
	Iterations  int
	Converged   bool
}

// RunLBP evaluates both approaches on one cross-day setting. With
// sparse=true the graphs are labeled from the small public feeds instead
// of the commercial blacklist — the regime where the approaches separate:
// belief propagation has little to propagate from few seeds, while
// Segugio's activity and IP-abuse features keep carrying signal.
func RunLBP(n *Network, trainDay, testDay int, sparse bool, seed int64) (*LBPResult, error) {
	opts := CrossOptions{TestFraction: 0.6, Seed: seed}
	if sparse {
		opts.TrainBlacklist = n.Public
	}
	// Segugio path (timed end to end: train + classify).
	t0 := time.Now()
	seg, err := RunCross(n, trainDay, n, testDay, opts)
	if err != nil {
		return nil, err
	}
	segTime := time.Since(t0)

	res := &LBPResult{Network: n.Name(), Day: testDay, Sparse: sparse, SegugioTime: segTime}
	res.Segugio, err = summarizeCurve(seg.Scores, seg.Labels)
	if err != nil {
		return nil, err
	}

	// BP path on the raw labeled test-day graph (the same input Segugio's
	// Classify receives; graph pruning is part of Segugio's contribution
	// and the approach of [6] has no such stage, so BP takes the full
	// graph with its proxy/prober/singleton noise).
	bl := n.Commercial
	if sparse {
		bl = n.Public
	}
	g := n.Labeled(n.Day(testDay), bl, seg.Hidden)
	t0 = time.Now()
	bp, err := belief.Propagate(g, belief.Config{MaxIterations: 15})
	if err != nil {
		return nil, fmt.Errorf("experiments: lbp: %w", err)
	}
	res.BPTime = time.Since(t0)
	res.Iterations = bp.Iterations
	res.Converged = bp.Converged

	scores := make([]float64, len(seg.Domains))
	for i, name := range seg.Domains {
		if d, ok := g.DomainIndex(name); ok {
			scores[i] = bp.DomainBelief[d]
		}
	}
	res.BP, err = summarizeCurve(scores, seg.Labels)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the comparison.
func (l *LBPResult) String() string {
	var b strings.Builder
	regime := "commercial ground truth"
	if l.Sparse {
		regime = "sparse public-feed ground truth"
	}
	fmt.Fprintf(&b, "Loopy belief propagation comparison (%s, test day %d, %s)\n", l.Network, l.Day, regime)
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %14s\n", "system", "AUC", "TPR@0.1%FP", "TPR@1%FP", "wall clock")
	fmt.Fprintf(&b, "%-10s %10.4f %11.1f%% %11.1f%% %14v\n", "Segugio",
		l.Segugio.AUC, l.Segugio.TPRAt[0.001]*100, l.Segugio.TPRAt[0.01]*100, l.SegugioTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-10s %10.4f %11.1f%% %11.1f%% %14v (%d iters, converged=%v)\n", "LBP",
		l.BP.AUC, l.BP.TPRAt[0.001]*100, l.BP.TPRAt[0.01]*100, l.BPTime.Round(time.Millisecond),
		l.Iterations, l.Converged)
	b.WriteString("(paper: Segugio ~45% more accurate; minutes vs tens of hours on GraphLab)\n")
	return b.String()
}
