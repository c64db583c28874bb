package core

import (
	"sync"

	"segugio/internal/features"
	"segugio/internal/graph"
)

// ClassifySession memoizes the O(graph) half of classification — the
// combined prober-filter + prune plan, the materialized pruned graph,
// and the feature extractor — across passes. A full pass (Classify)
// computes and publishes that preparation; subsequent delta passes
// (ClassifyDelta) at later snapshots of the same builder lineage reuse
// the frozen plan through a graph.PrunedView and cost O(dirty targets),
// not O(graph).
//
// Invalidation: the memo is keyed by input identity (graph snapshot,
// activity log, abuse index pointers). Classify recomputes whenever any
// of them changes. ClassifyDelta additionally accepts later snapshots of
// the same lineage while graph.PrunePlan.StaleFor allows — same day,
// monotone growth within a drift bound, R4's thetaM unchanged — and
// falls back to a full recompute otherwise. Detector configuration is
// immutable per Detector, so a reloaded detector needs a new session.
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
	return s.classify(in, false)
}

// ClassifyDelta scores exactly in.Domains against the session's frozen
// prune plan, without any full-graph scan: targets are resolved through
// a graph.PrunedView over the live snapshot (O(2-hop neighborhood of
// the targets)). When the session has no valid preparation for the
// input — first pass, new day, input identity change, or drift past the
// plan's staleness bounds — it behaves like Classify: one full
// preparation, report.PrunedCached=false, and the fresh plan is
// published for the passes that follow. A nil in.Domains is Classify
// (scoring every unknown domain needs the full graph anyway).
func (s *ClassifySession) ClassifyDelta(in ClassifyInput) ([]Detection, *ClassifyReport, error) {
	return s.classify(in, in.Domains != nil)
}

// classify is the one snapshot-to-score path: resolve the memoized
// preparation or build and publish a new one, pick the extractor that
// answers for in.Graph, score the targets. delta accepts a preparation
// made for an earlier snapshot while deltaValid allows.
func (s *ClassifySession) classify(in ClassifyInput, delta bool) ([]Detection, *ClassifyReport, error) {
	if in.Graph == nil || !in.Graph.Labeled() {
		return nil, nil, ErrUnlabeled
	}
	ctx := in.ctx()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	prep := s.snapshot()
	cached := s.deltaValid(prep, in) && (delta || prep.src == in.Graph)
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

	// ex measures on gv, whose node ids origin maps back to in.Graph's.
	ex, gv := prep.ex, features.GraphView(prep.pruned)
	origin := func(d int32) int32 { return d }
	switch {
	case prep.src == in.Graph:
		// Same snapshot: the memoized extractor already answers for it.
		if prep.pruned != prep.src {
			origin = prep.pruned.DomainOrigin
		}
	case prep.plan == nil:
		// No prune pipeline configured: extract straight off the live
		// snapshot, exactly as a full pass would.
		var err error
		ex, err = features.NewExtractor(in.Graph, in.Activity, in.Abuse, s.det.cfg.ActivityWindow)
		if err != nil {
			return nil, nil, err
		}
		gv, report.PrunedGraph = in.Graph, in.Graph
	default:
		// Nothing is materialized for a later snapshot: the frozen plan
		// answers through a view over the targets' neighborhood.
		view := graph.NewPrunedView(in.Graph, prep.plan, in.Domains)
		var err error
		ex, err = features.NewExtractorView(view, in.Activity, in.Abuse, s.det.cfg.ActivityWindow)
		if err != nil {
			return nil, nil, err
		}
		gv, report.PrunedGraph = view, nil
	}
	// Targets as node ids of gv: every unknown domain, or the requested
	// names that resolve (the rest are missing, in input order).
	var targets []int32
	if in.Domains == nil {
		targets = ex.Graph().DomainsWithLabel(graph.LabelUnknown)
	} else {
		targets = make([]int32, 0, len(in.Domains))
		for _, name := range in.Domains {
			if d, ok := gv.DomainIndex(name); ok {
				targets = append(targets, d)
			} else {
				report.Missing = append(report.Missing, name)
			}
		}
	}
	dets, err := s.det.scoreTargets(ctx, ex, gv, targets, origin, report)
	if err != nil {
		return nil, nil, err
	}
	return dets, report, nil
}

// deltaValid reports whether prep's frozen decisions may serve a delta
// pass over in: same activity/abuse inputs and same observation day, and
// — when the snapshot moved — either no frozen plan exists (nothing to
// go stale) or the plan's O(1) staleness bounds still hold.
func (s *ClassifySession) deltaValid(prep *prepared, in ClassifyInput) bool {
	if prep == nil || prep.activity != in.Activity || prep.abuse != in.Abuse {
		return false
	}
	if prep.src == in.Graph {
		return true
	}
	if prep.src.Day() != in.Graph.Day() {
		return false
	}
	if prep.plan == nil {
		return true
	}
	return !prep.plan.StaleFor(in.Graph)
}
