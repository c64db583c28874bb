package detector

import (
	"context"
	"errors"

	"segugio/internal/belief"
	"segugio/internal/graph"
)

func init() {
	Register("lbp", newLBP)
}

// lbp scores domains by loopy belief propagation over the live
// machine–domain graph, carrying per-edge message state across passes
// so a pass whose delta is exact re-propagates only from the dirty
// domains. Unlike the forest it runs on the unpruned snapshot: pruning
// removes exactly the low-degree machines whose co-occurrence carries
// belief, and the ingest delta contract makes the incremental pass
// exact there (grown machines are always adjacent to dirty domains).
type lbp struct {
	eng       *belief.Engine
	threshold float64

	g    *graph.Graph
	last *belief.Result
}

func newLBP(cfg Config) (Detector, error) {
	t := cfg.Tuning.withDefaults()
	return &lbp{eng: belief.NewEngine(t.LBP), threshold: t.LBPThreshold}, nil
}

func (l *lbp) Name() string       { return "lbp" }
func (l *lbp) Threshold() float64 { return l.threshold }
func (l *lbp) Close() error       { return nil }

func (l *lbp) Prepare(ctx context.Context, p Pass) error {
	if p.Graph == nil || !p.Graph.Labeled() {
		return belief.ErrUnlabeledGraph
	}
	res, err := l.eng.RunContext(ctx, p.Graph, p.Version, p.Since, p.Delta)
	if err != nil {
		return err
	}
	l.g, l.last = p.Graph, res
	return nil
}

func (l *lbp) Score(ctx context.Context, targets []string) (*Result, error) {
	if l.last == nil {
		return nil, errors.New("detector: lbp: Score before Prepare")
	}
	res := &Result{
		Stats: Stats{
			Mode:       l.last.Mode,
			Iterations: l.last.Iterations,
			Updates:    l.last.Updates,
			PeakQueue:  l.last.PeakQueue,
		},
	}
	if targets == nil {
		for d := 0; d < l.g.NumDomains(); d++ {
			if l.g.DomainLabel(int32(d)) != graph.LabelUnknown {
				continue
			}
			res.Scores = append(res.Scores, Score{
				Domain: l.g.DomainName(int32(d)),
				Score:  l.last.DomainBelief[d],
			})
		}
		return res, nil
	}
	for _, name := range targets {
		d, ok := l.g.DomainIndex(name)
		if !ok {
			res.Missing = append(res.Missing, name)
			continue
		}
		res.Scores = append(res.Scores, Score{Domain: name, Score: l.last.DomainBelief[d]})
	}
	return res, nil
}
