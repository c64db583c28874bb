package server

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"segugio/internal/core"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/obs"
	"segugio/internal/tracker"
)

// pass is one completed classify-all pass ("score every unknown domain in
// the live graph"): the snapshot it ran on, the rows it serves, and
// everything else a reader needs to answer for that snapshot. classifyAll
// is the only producer; it publishes each pass through Server.pass, and a
// published pass is immutable, so readers load it without a lock and every
// slice in it may back an in-flight response.
//
// A pass is the cold batch classify of its snapshot: the session prepares
// the snapshot (prober filter, prune plan with R2's degree percentile and
// R4's machine-count threshold resolved on the whole graph, extractor) and
// scores every unknown domain that survives pruning. Nothing carries over
// from the pass before, so what a pass serves is what
// core.Detector.Classify returns for the same snapshot. The one exception
// is a pass with nothing to do — same snapshot version, day and model as
// the published pass — which scores nothing and serves that pass's rows.
type pass struct {
	// graph and version are the snapshot the pass scored; model is the
	// detector (and session) that scored it.
	graph   *graph.Graph
	version uint64
	model   *loadedModel
	// rows are the scored domains in render order (score descending, then
	// name); the first detected of them are at or above the threshold.
	// rowOf[d] is 1 + the index in rows of domain node d of graph, 0 when
	// the pass scored no such domain (a known-labeled one, or an unknown
	// that pruning removed).
	rows     []ClassifyDetection
	detected int
	rowOf    []int32
	// diff is what the pass changed in the cross-day tracker; nil without
	// a tracker.
	diff *tracker.DayDiff
}

// row returns the pass's row for domain node d of its graph.
func (p *pass) row(d int32) (ClassifyDetection, bool) {
	if i := p.rowOf[d]; i > 0 {
		return p.rows[i-1], true
	}
	return ClassifyDetection{}, false
}

// rowCmp is the render order of classify-all rows: score descending,
// then domain ascending, the order core's detection sort produces.
func rowCmp(a, b ClassifyDetection) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Domain, b.Domain)
}

// classifyAll produces the next pass and publishes it. It holds passMu
// throughout, serializing concurrent classify-all requests (the second
// finds the snapshot the first scored and scores nothing). A pass that
// blows the deadline returns the last published pass with stale set (see
// passAborted).
func (s *Server) classifyAll(ctx context.Context, m *loadedModel) (p *pass, stale bool, err error) {
	s.passMu.Lock()
	defer s.passMu.Unlock()

	// The pass context bounds everything below: a pass that blows the
	// deadline is cancelled mid-sweep. The deadline also bounds how long
	// passMu is held, so a stuck pass cannot wedge the next one.
	passCtx := ctx
	if s.cfg.PassDeadline > 0 {
		var cancel context.CancelFunc
		passCtx, cancel = context.WithTimeout(ctx, s.cfg.PassDeadline)
		defer cancel()
	}
	if s.cfg.PassHook != nil {
		s.cfg.PassHook(passCtx)
	}

	prev := s.pass.Load()
	since := uint64(0)
	if prev != nil {
		since = prev.version
	}
	_, snapSpan := s.cfg.Tracer.StartSpan(ctx, obs.StageSnapshot)
	g, version, _ := s.cfg.Graphs.SnapshotSince(since)
	snapSpan.End()
	if !g.Labeled() {
		return nil, false, errNotLabeled
	}
	if err := passCtx.Err(); err != nil {
		return s.passAborted(prev, ctx, passCtx, err)
	}

	if prev != nil && prev.version == version && prev.graph.Day() == g.Day() && prev.model == m {
		// Nothing moved since the published pass: serve its rows again.
		next := *prev
		next.diff = nil
		p = &next
		s.pruneHits.Inc()
	} else {
		_, clsSpan := s.cfg.Tracer.StartSpan(ctx, obs.StageClassify)
		dets, report, err := m.session.Classify(core.ClassifyInput{
			Ctx: passCtx, Graph: g, Activity: s.cfg.Activity, Abuse: s.cfg.Abuse,
		})
		if err != nil {
			clsSpan.End()
			return s.passAborted(prev, ctx, passCtx, err)
		}
		clsSpan.SetAttr("prune", pruneAttr(report.PrunedCached))
		clsSpan.SetAttr("pruned_cached", report.PrunedCached)
		clsSpan.SetAttr("scored", len(dets))
		clsSpan.RecordChild(obs.StageFeatureExtract, report.Timing.Extract)
		clsSpan.End()
		s.countPrune(report.PrunedCached)

		threshold := m.det.Threshold()
		p = &pass{graph: g, version: version, model: m, rows: make([]ClassifyDetection, len(dets)), rowOf: make([]int32, g.NumDomains())}
		for i, d := range dets {
			p.rows[i] = ClassifyDetection{
				Domain:       d.Domain,
				Score:        d.Score,
				Detected:     d.Score >= threshold,
				ScoreVersion: version,
				id:           d.ID,
			}
			p.rowOf[d.ID] = int32(i) + 1
		}
		p.detected = sort.Search(len(p.rows), func(i int) bool { return !p.rows[i].Detected })
	}

	// A completed pass means every served score is current up to this
	// snapshot's day: the score_cache watermark advances.
	s.cfg.Watermarks.Ack(obs.WatermarkScoreCache, obs.WatermarkSourceAll, g.Day())
	if s.overruns > 0 {
		s.overruns = 0
		if s.cfg.Health != nil {
			s.cfg.Health.Clear("classify_pass")
		}
	}

	// Everything that follows a pass hangs off the value just built: the
	// audit trail records the domains that crossed the threshold since the
	// previous pass, the tracker folds the day's detections in, and the
	// readers get the pass.
	if s.cfg.Audit != nil {
		s.auditNewDetections(prev, p)
	}
	if s.cfg.Tracker != nil {
		detections := make([]core.Detection, p.detected)
		for i, row := range p.rows[:p.detected] {
			detections[i] = core.Detection{Domain: row.Domain, Score: row.Score}
		}
		p.diff = s.cfg.Tracker.Observe(g.Day(), detections, g)
	}
	s.pass.Store(p)
	return p, false, nil
}

// passAborted handles a failed classify-all pass. A deadline overrun —
// the pass context expired while the caller's own context is still live
// — is the graceful-degradation path: count it, escalate the watchdog
// after passOverrunEscalate consecutive overruns, and serve the last
// published pass stale-marked when one exists. Any other failure (plain
// pass error, caller disconnected, daemon shutting down) propagates
// as-is. Partial results of the aborted pass are never published, and the
// core session discards its own partial state on cancellation. Caller
// holds passMu.
func (s *Server) passAborted(prev *pass, reqCtx, passCtx context.Context, err error) (*pass, bool, error) {
	if passCtx.Err() == nil || reqCtx.Err() != nil {
		return nil, false, err
	}
	s.passDeadlineExceeded.Inc()
	s.overruns++
	s.log.Warn("classify pass exceeded deadline",
		"deadline", s.cfg.PassDeadline.String(),
		"consecutive_overruns", s.overruns,
		"last_good", prev != nil,
		"err", err)
	if s.overruns >= passOverrunEscalate && s.cfg.Health != nil {
		s.cfg.Health.Set("classify_pass", health.Degraded,
			fmt.Sprintf("%d consecutive classify passes exceeded the %s deadline",
				s.overruns, s.cfg.PassDeadline))
	}
	if prev == nil {
		return nil, false, err
	}
	return prev, true, nil
}

// pruneAttr renders the prune span attribute.
func pruneAttr(cached bool) string {
	if cached {
		return "cached"
	}
	return "computed"
}

// countPrune feeds the prune-pipeline memoization counters.
func (s *Server) countPrune(cached bool) {
	if cached {
		s.pruneHits.Inc()
	} else {
		s.pruneMisses.Inc()
	}
}

// auditMaxMachines caps the evidence machine IDs carried by one audit
// record, mirroring maxMachinesInResponse.
const auditMaxMachines = maxMachinesInResponse

// auditNewDetections appends, as one batch, one audit record per newly
// detected domain: detected in pass p, not detected in prev, the pass
// before it (nil when p is the first). A pass scores afresh but keeps the
// memory of what was already flagged — otherwise every detector reload
// would re-audit the whole standing detection set. The feature vector is extracted from the
// labeled live snapshot the pass classified against (the pre-prune graph,
// so pruned-away context is still visible to the analyst) with the F2
// window of the detector that scored the pass; evidence machines are
// capped at auditMaxMachines.
func (s *Server) auditNewDetections(prev, p *pass) {
	var ex *features.Extractor
	var recs []obs.AuditRecord
	det := p.model.det
	threshold := det.Threshold()
	for _, row := range p.rows[:p.detected] {
		// prev may be of another day's graph, so it is asked by name, not
		// by node id.
		if prev != nil {
			if d, ok := prev.graph.DomainIndex(row.Domain); ok {
				if was, ok := prev.row(d); ok && was.Detected {
					continue
				}
			}
		}
		if ex == nil {
			var err error
			ex, err = features.NewExtractor(p.graph, s.cfg.Activity, s.cfg.Abuse, det.ActivityWindow())
			if err != nil {
				s.auditLog.Warn("audit extractor failed", "err", err)
				return
			}
		}
		rec := obs.AuditRecord{
			Day:          p.graph.Day(),
			Domain:       row.Domain,
			Score:        row.Score,
			Threshold:    threshold,
			Reason:       obs.ReasonNewDetection,
			GraphVersion: p.version,
			ScoreVersion: row.ScoreVersion,
		}
		// Detection freshness: how many days sat between the domain first
		// appearing in traffic and this detection. FirstSeenDay is a lower
		// bound once activity history has been trimmed, so the lag is an
		// upper bound on first_seen -> first_detected.
		if s.cfg.Activity != nil {
			if first, ok := s.cfg.Activity.FirstSeenDay(row.Domain); ok {
				rec.FirstSeenDay = first
				rec.DetectionLagDays = rec.Day - first
				rec.HasFreshness = true
			}
		}
		v := features.BorrowVector()
		ex.VectorInto(row.id, v)
		rec.Features = make(map[string]float64, len(v))
		for i, name := range features.Names() {
			rec.Features[name] = v[i]
		}
		features.ReturnVector(v)
		machines := p.graph.MachinesOf(row.id)
		rec.MachinesTotal = len(machines)
		for _, m := range machines {
			if len(rec.Machines) == auditMaxMachines {
				break
			}
			rec.Machines = append(rec.Machines, p.graph.MachineID(m))
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return
	}
	// One append for the whole pass: a reader of the trail sees none of
	// the pass's records or all of them.
	if err := s.cfg.Audit.AppendAll(recs); err != nil {
		s.auditLog.Warn("audit append failed", "records", len(recs), "err", err)
	}
	for _, rec := range recs {
		s.auditLog.Info("domain newly detected",
			"domain", rec.Domain, "score", rec.Score, "threshold", threshold,
			"day", rec.Day, "graph_version", p.version, "machines", rec.MachinesTotal)
	}
}
