package server

import (
	"context"
	"fmt"
	"slices"
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
// slice and map in it may back an in-flight response.
//
// A pass is built from the one before it. Between two snapshots the
// ingester reports the exact set of dirty domains — domains whose
// adjacency, labels, or resolved IPs changed — so a pass at version v+k
// re-extracts features and re-scores only the dirty domains, through the
// session's frozen prune plan (core.ClassifySession.ClassifyDelta, no
// full-graph scan), and keeps every other row of the previous pass with
// the graph version it was scored at. The previous rows are dropped whole
// (a full pass) whenever per-domain deltas cannot prove they still hold:
//
//   - the delta is inexact (first snapshot, ring overflow, epoch rotation);
//   - the observation day changed (scores are per-day);
//   - the detector was reloaded (different model or threshold regime);
//   - the session's prune plan was recomputed — by this pass or by a
//     by-name request that fell through to the live graph in between — and
//     its signature is no longer the one the rows were scored under
//     (graph-global thresholds thetaD/thetaM shifted, which can change the
//     pruning fate of untouched domains).
//
// Feature extraction itself reads graph-global state beyond the dirty
// set (e2LD popularity, machine degree distributions), so delta scoring
// is a bounded approximation: a domain whose own evidence is unchanged
// keeps its score even if far-away graph growth nudged shared
// denominators. The session's drift bounds and the signature flush keep
// the error to shifts that do not move the global thresholds.
type pass struct {
	// graph and version are the snapshot the pass scored; model is the
	// detector (and session) that scored it.
	graph   *graph.Graph
	version uint64
	model   *loadedModel
	// pruneSig is the prune-plan signature the rows were scored under.
	pruneSig uint64
	// rows are the scored domains in render order (score descending, then
	// name); the first detected of them are at or above the threshold.
	// missing lists the targets absent from the pruned graph (they cannot
	// be detected), by name ascending. byID indexes both by graph's domain
	// node id, for lookups and for the next pass's merge.
	rows     []ClassifyDetection
	detected int
	missing  []missingDomain
	byID     []domainScore
	// rescored counts the domains whose features this pass re-extracted.
	rescored int
	// diff is what the pass changed in the cross-day tracker; nil without
	// a tracker.
	diff *tracker.DayDiff
}

// domainScore is one domain's entry in pass.byID: scored when it has a
// row, missing when it is listed in pass.missing. The zero value is a
// domain the pass holds neither for — a known-labeled one, or an unknown
// that pruning removed.
type domainScore struct {
	score    float64
	version  uint64
	detected bool
	scored   bool
	missing  bool
}

// missingDomain is one entry of pass.missing.
type missingDomain struct {
	name string
	id   int32
}

// row returns the pass's row for domain node d of its graph.
func (p *pass) row(d int32) (ClassifyDetection, bool) {
	e := p.byID[d]
	if !e.scored {
		return ClassifyDetection{}, false
	}
	return ClassifyDetection{Domain: p.graph.DomainName(d), Score: e.score, Detected: e.detected, ScoreVersion: e.version, id: d}, true
}

// missingNames renders pass.missing for a reply.
func (p *pass) missingNames() []string {
	if len(p.missing) == 0 {
		return nil
	}
	names := make([]string, len(p.missing))
	for i, m := range p.missing {
		names[i] = m.name
	}
	return names
}

// rowCmp is the render order of classify-all rows: score descending,
// then domain ascending. It matches core's detection sort, so merged
// delta rows interleave exactly as a full re-sort would place them.
func rowCmp(a, b ClassifyDetection) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Domain, b.Domain)
}

func missingCmp(a, b missingDomain) int { return strings.Compare(a.name, b.name) }

// mergeSorted merges the elements of old that keep holds for with add,
// both sorted by cmp, into a new slice — copy-on-write: old may still back
// an in-flight response.
func mergeSorted[T any](old []T, keep func(T) bool, add []T, cmp func(a, b T) int) []T {
	if len(old) == 0 {
		return add
	}
	out := make([]T, 0, len(old)+len(add))
	j := 0
	for _, e := range old {
		if !keep(e) {
			continue
		}
		for j < len(add) && cmp(add[j], e) < 0 {
			out = append(out, add[j])
			j++
		}
		out = append(out, e)
	}
	return append(out, add[j:]...)
}

// classifyAll produces the next pass and publishes it. It holds passMu
// throughout, serializing concurrent classify-all requests (the second
// becomes a pass with nothing to re-score). A pass that blows the
// deadline returns the last published pass with stale set (see
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
	g, version, delta := s.cfg.Graphs.SnapshotSince(since)
	snapSpan.SetAttr("exact", delta.Exact)
	snapSpan.End()
	if !g.Labeled() {
		return nil, false, errNotLabeled
	}
	if err := passCtx.Err(); err != nil {
		return s.passAborted(prev, ctx, passCtx, err)
	}

	// A delta pass re-scores the dirty domains that are still
	// unknown-labeled targets; a dirty domain that got labeled only drops
	// out. A full pass scores every unknown (nil targets). The changed set
	// is kept as node ids, which are stable along an exact delta.
	full := prev == nil || !delta.Exact || prev.graph.Day() != g.Day() || prev.model != m
	var (
		changed   []int32
		targets   []string
		targetIDs []int32
	)
	if !full {
		changed = delta.IDs
		for _, d := range changed {
			if g.DomainLabel(d) == graph.LabelUnknown {
				targets = append(targets, g.DomainName(d))
				targetIDs = append(targetIDs, d)
			}
		}
	}

	// With nothing to re-score the previous rows are served as they are
	// (minus any dropped targets) and the session is not consulted.
	var (
		dets     []core.Detection
		pruneSig uint64
	)
	if !full {
		pruneSig = prev.pruneSig
		if len(targets) == 0 {
			s.pruneHits.Inc()
		}
	}
	for full || len(targets) > 0 {
		_, clsSpan := s.cfg.Tracer.StartSpan(ctx, obs.StageClassify)
		clsSpan.SetAttr("mode", passMode(full))
		var report *core.ClassifyReport
		dets, report, err = m.session.ClassifyDelta(core.ClassifyInput{
			Ctx: passCtx, Graph: g, Activity: s.cfg.Activity, Abuse: s.cfg.Abuse, Domains: targets,
		})
		if err != nil {
			clsSpan.End()
			return s.passAborted(prev, ctx, passCtx, err)
		}
		if !full && report.PruneSig != pruneSig {
			// The global prune thresholds moved since the previous rows
			// were scored: the pruning fate of untouched domains may have
			// changed, so the per-domain delta cannot prove them. Redo the
			// pass in full (the session holds a plan for this snapshot
			// now, so it costs one extraction sweep, not a second graph
			// scan).
			clsSpan.SetAttr("prune", "shifted")
			clsSpan.End()
			full, targets, targetIDs = true, nil, nil
			continue
		}
		pruneSig = report.PruneSig
		clsSpan.SetAttr("prune", pruneAttr(report.PrunedCached))
		clsSpan.SetAttr("pruned_cached", report.PrunedCached)
		clsSpan.SetAttr("targets", len(dets)+len(report.Missing))
		clsSpan.SetAttr("scored", len(dets))
		clsSpan.RecordChild(obs.StageFeatureExtract, report.Timing.Extract)
		clsSpan.End()
		s.countPrune(report.PrunedCached)
		break
	}

	// Install: the new rows merged into the previous pass's — a full pass
	// is a delta against an empty previous pass. The previous index carries
	// over by position: one copy, the changed domains cleared, and what is
	// left says which previous rows and missing entries still hold.
	base := prev
	if full {
		base, changed = &pass{}, nil
	}
	p = &pass{graph: g, version: version, model: m, pruneSig: pruneSig, rows: base.rows, missing: base.missing}
	p.byID = make([]domainScore, g.NumDomains())
	copy(p.byID, base.byID)
	for _, d := range changed {
		p.byID[d] = domainScore{}
	}
	threshold := m.det.Threshold()
	add := make([]ClassifyDetection, len(dets))
	for i, d := range dets {
		add[i] = ClassifyDetection{
			Domain:       d.Domain,
			Score:        d.Score,
			Detected:     d.Score >= threshold,
			ScoreVersion: version,
			id:           d.ID,
		}
	}
	if full || len(changed) > 0 {
		p.rows = mergeSorted(base.rows, func(row ClassifyDetection) bool { return p.byID[row.id].scored }, add, rowCmp)
	}
	for _, row := range add {
		p.byID[row.id] = domainScore{score: row.Score, version: version, detected: row.Detected, scored: true}
	}
	p.detected = sort.Search(len(p.rows), func(i int) bool { return !p.rows[i].Detected })
	// A target without a row was absent from the pruned graph.
	var missing []missingDomain
	for i, d := range targetIDs {
		if !p.byID[d].scored {
			missing = append(missing, missingDomain{name: targets[i], id: d})
		}
	}
	slices.SortFunc(missing, missingCmp)
	if len(changed) > 0 {
		p.missing = mergeSorted(base.missing, func(e missingDomain) bool { return p.byID[e.id].missing }, missing, missingCmp)
	}
	for _, e := range missing {
		p.byID[e.id].missing = true
	}
	p.rescored = len(dets) + len(missing)
	s.cacheMisses.Add(int64(p.rescored))
	s.cacheHits.Add(int64(len(p.rows) + len(p.missing) - p.rescored))

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

// passMode renders the classify span's mode attribute.
func passMode(full bool) string {
	if full {
		return "full"
	}
	return "delta"
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
// before it (nil when p is the first). A full pass drops prev's scores,
// not the memory of what was already flagged — otherwise every detector
// reload would re-audit the whole standing detection set. The feature vector is extracted from the
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
		// prev may be of another builder lineage (rotation, restart of the
		// delta history), so it is asked by name, not by node id.
		if prev != nil {
			if d, ok := prev.graph.DomainIndex(row.Domain); ok && prev.byID[d].detected {
				continue
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
