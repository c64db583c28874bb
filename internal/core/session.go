package core

import (
	"sync"

	"segugio/internal/graph"
)

// ClassifySession memoizes the O(graph) half of classification — the
// combined prober-filter + prune plan, the materialized pruned graph,
// and the feature extractor — for one snapshot, so every classify of
// that snapshot (a pass, then the by-name lookups it cannot answer)
// prepares it once.
//
// Invalidation: the memo is keyed by input identity (graph snapshot,
// activity log, abuse index pointers); any change recomputes it. Every
// classify is therefore the cold batch classify of its snapshot: R2's
// degree percentile and R4's machine-count threshold are resolved on the
// whole graph each time. Detector configuration is immutable per
// Detector, so a reloaded detector needs a new session.
//
// A session is safe for concurrent use: preparation is immutable once
// built, and publication is last-writer-wins under a mutex.
type ClassifySession struct {
	det *Detector

	mu   sync.Mutex
	prep *prepared
}

// NewSession returns an empty classify session for the detector.
func (d *Detector) NewSession() *ClassifySession {
	return &ClassifySession{det: d}
}

// snapshot returns the current preparation, which is immutable.
func (s *ClassifySession) snapshot() *prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prep
}

// publish installs a newly computed preparation. Concurrent computes are
// safe; the last one wins.
func (s *ClassifySession) publish(p *prepared) {
	s.mu.Lock()
	s.prep = p
	s.mu.Unlock()
}

// Classify scores in.Domains (nil: every unknown domain) with the
// per-snapshot preprocessing memoized: when the input identity matches
// the session's preparation, the prune pipeline and extractor are reused
// (report.PrunedCached) and the pass costs only extraction + scoring of
// its targets.
func (s *ClassifySession) Classify(in ClassifyInput) ([]Detection, *ClassifyReport, error) {
	if in.Graph == nil || !in.Graph.Labeled() {
		return nil, nil, ErrUnlabeled
	}
	ctx := in.ctx()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	prep := s.snapshot()
	cached := prep != nil && prep.src == in.Graph && prep.activity == in.Activity && prep.abuse == in.Abuse
	if !cached {
		var err error
		prep, err = s.det.prepare(in.Graph, in.Activity, in.Abuse)
		if err != nil {
			return nil, nil, err
		}
		s.publish(prep)
	}
	report := &ClassifyReport{}
	prep.fillReport(report, cached)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Targets as node ids of the pruned graph: every unknown domain, or the
	// requested names that resolve (the rest are missing, in input order).
	var targets []int32
	if in.Domains == nil {
		targets = prep.pruned.DomainsWithLabel(graph.LabelUnknown)
	} else {
		targets = make([]int32, 0, len(in.Domains))
		for _, name := range in.Domains {
			if d, ok := prep.pruned.DomainIndex(name); ok {
				targets = append(targets, d)
			} else {
				report.Missing = append(report.Missing, name)
			}
		}
	}
	dets, err := s.det.scoreTargets(ctx, prep.ex, targets, report)
	if err != nil {
		return nil, nil, err
	}
	return dets, report, nil
}

// ClassifyDelta is Classify. It remains only for the end-to-end
// benchmark harness (bench/trace.go), which calls it by name, and goes
// when that harness is next changed.
func (s *ClassifySession) ClassifyDelta(in ClassifyInput) ([]Detection, *ClassifyReport, error) {
	return s.Classify(in)
}
