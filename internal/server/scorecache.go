package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"segugio/internal/core"
	"segugio/internal/detector"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/obs"
)

// scoreCache memoizes the classify-all result ("score every unknown
// domain in the live graph") across graph versions. Between two
// snapshots the ingester reports the exact set of dirty domains —
// domains whose adjacency, labels, or resolved IPs changed — so a
// classify-all at version v+k re-extracts features and re-scores only
// the dirty domains and keeps every other score from the cache, keyed by
// the graph version it was computed at.
//
// The expensive per-snapshot preprocessing (prober filter, prune,
// extractor setup) is memoized separately in a core.ClassifySession:
// delta passes route through ClassifyDelta, which reuses the frozen
// prune plan and never rescans the full graph.
//
// The cache flushes whole (full re-classification) whenever per-domain
// deltas cannot prove the old scores still hold:
//
//   - the delta is inexact (first snapshot, ring overflow, epoch rotation);
//   - the observation day changed (scores are per-day);
//   - the detector was reloaded (different model or threshold regime);
//   - the session had to recompute its prune plan and the resulting
//     prune signature moved (graph-global thresholds thetaD/thetaM
//     shifted, which can change the pruning fate of untouched domains).
//
// Feature extraction itself reads graph-global state beyond the dirty
// set (e2LD popularity, machine degree distributions), so delta scoring
// is a bounded approximation: a domain whose own evidence is unchanged
// keeps its score even if far-away graph growth nudged shared
// denominators. The session's drift bounds and the signature flush keep
// the error to shifts that do not move the global thresholds.
type scoreCache struct {
	mu       sync.Mutex
	valid    bool
	version  uint64
	day      int
	detStamp time.Time
	entries  map[string]scoreEntry
	// forest is the primary detector plugin wrapping a classify session
	// (which memoizes the prune pipeline across passes); forestCore is
	// the core detector it wraps (a reload swaps the detector pointer,
	// which must start a fresh plugin and session).
	forest     detector.Detector
	forestCore *core.Detector
	// sortedRows/sortedMissing mirror entries in render order (score
	// desc, then name; missing sorted ascending). They are rebuilt on a
	// full pass, patched by sorted merge on a delta pass, and served
	// as-is — callers must treat them as immutable — on pure cache
	// reads, so an idle classify-all does no O(n log n) re-sort.
	sortedRows    []ClassifyDetection
	sortedMissing []string
	// graph is the snapshot the cached rows were scored against — the
	// last-good pass. A deadline-aborted pass serves it stale-marked.
	graph *graph.Graph
	// overruns counts consecutive deadline-aborted passes; the watchdog
	// escalates the classify_pass health signal to degraded at
	// passOverrunEscalate and any completed pass resets it.
	overruns int
	// detected is the detection state of the previous pass, persisted
	// across cache flushes: the audit trail records a domain when it is
	// detected now but was not in the last pass (or there was none). A
	// flush invalidates scores, not the memory of what was already
	// flagged — otherwise every detector reload would re-audit the whole
	// standing detection set.
	detected map[string]bool
}

// scoreEntry is one cached classify-all row. version records the graph
// version the score was computed at; missing marks a domain that was a
// target but absent from the pruned graph (it cannot be detected).
type scoreEntry struct {
	score   float64
	version uint64
	missing bool
}

// classifyAllResult is the merged cache state after one classify-all
// pass, plus the accounting the caller renders. rows and missing alias
// the cache's sorted state and must be treated as immutable.
type classifyAllResult struct {
	graph    *graph.Graph
	version  uint64
	rows     []ClassifyDetection // sorted by score desc, then name
	missing  []string
	rescored int // domains whose features were re-extracted this pass
	// stale marks a result served from the last completed pass because
	// the current one blew its deadline: graph, version, and rows all
	// describe that earlier pass.
	stale bool
}

// rowLess is the render order of classify-all rows: score descending,
// then domain ascending. It matches core's detection sort, so merged
// delta rows interleave exactly as a full re-sort would place them.
func rowLess(a, b ClassifyDetection) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Domain < b.Domain
}

// mergeRows merges the previous sorted rows (minus the changed domains)
// with the freshly scored rows (already sorted by the same order) into a
// new slice, copy-on-write: the old slice may still back an in-flight
// response.
func mergeRows(old []ClassifyDetection, changed map[string]bool, add []ClassifyDetection) []ClassifyDetection {
	out := make([]ClassifyDetection, 0, len(old)+len(add))
	j := 0
	for _, row := range old {
		if changed[row.Domain] {
			continue
		}
		for j < len(add) && rowLess(add[j], row) {
			out = append(out, add[j])
			j++
		}
		out = append(out, row)
	}
	return append(out, add[j:]...)
}

// mergeMissing is mergeRows for the sorted missing-name list.
func mergeMissing(old []string, changed map[string]bool, add []string) []string {
	out := make([]string, 0, len(old)+len(add))
	j := 0
	for _, name := range old {
		if changed[name] {
			continue
		}
		for j < len(add) && add[j] < name {
			out = append(out, add[j])
			j++
		}
		out = append(out, name)
	}
	return append(out, add[j:]...)
}

// classifyAll serves "score every unknown domain" through the cache.
// It holds the cache lock for the whole pass, serializing concurrent
// classify-all requests (the second request becomes a pure cache read).
func (s *Server) classifyAll(ctx context.Context, det *core.Detector, loadedAt time.Time) (*classifyAllResult, error) {
	c := &s.cache
	c.mu.Lock()
	defer c.mu.Unlock()

	// The pass context bounds everything below, including the auxiliary
	// detectors: a pass that blows the deadline is cancelled mid-sweep
	// and the caller is served the last-good cached result, stale-marked
	// (see passAborted). The deadline also bounds how long c.mu is held,
	// so a stuck pass cannot wedge the API.
	passCtx := ctx
	if s.cfg.PassDeadline > 0 {
		var cancel context.CancelFunc
		passCtx, cancel = context.WithTimeout(ctx, s.cfg.PassDeadline)
		defer cancel()
	}
	if s.cfg.PassHook != nil {
		s.cfg.PassHook(passCtx)
	}

	since := uint64(0)
	if c.valid {
		since = c.version
	}
	_, snapSpan := s.cfg.Tracer.StartSpan(ctx, obs.StageSnapshot)
	g, version, delta := s.cfg.Graphs.SnapshotSince(since)
	snapSpan.SetAttr("exact", delta.Exact)
	snapSpan.End()
	if !g.Labeled() {
		return nil, errNotLabeled
	}

	if c.forest == nil || c.forestCore != det {
		forest, err := detector.New("forest", detector.Config{Core: det})
		if err != nil {
			return nil, err
		}
		c.forest, c.forestCore = forest, det
	}
	threshold := det.Threshold()
	pass := detector.Pass{
		Graph: g, Version: version, Since: since, Delta: delta,
		Activity: s.cfg.Activity, Abuse: s.cfg.Abuse,
	}
	if err := c.forest.Prepare(passCtx, pass); err != nil {
		return s.passAborted(c, ctx, passCtx, err)
	}

	flush := !c.valid || !delta.Exact || c.day != g.Day() || !c.detStamp.Equal(loadedAt)
	rescored := 0
	if !flush {
		// Delta pass: the only domains whose classify-all row can differ
		// from the cache are the dirty ones. A dirty domain that is no
		// longer an unknown-labeled target (it got labeled, or vanished)
		// drops out of the result; the rest are re-scored against the new
		// snapshot through the session's frozen prune plan. Untouched
		// entries are served as cache hits.
		changed := make(map[string]bool, len(delta.Domains))
		var toScore []string
		for _, name := range delta.Domains {
			if changed[name] {
				continue
			}
			changed[name] = true
			d, ok := g.DomainIndex(name)
			if !ok || g.DomainLabel(d) != graph.LabelUnknown {
				delete(c.entries, name)
				continue
			}
			toScore = append(toScore, name)
		}
		if len(toScore) == 0 {
			// Pure cache read: nothing to re-score, rows served as-is
			// (minus any dropped targets).
			if len(changed) > 0 {
				c.sortedRows = mergeRows(c.sortedRows, changed, nil)
				c.sortedMissing = mergeMissing(c.sortedMissing, changed, nil)
			}
			s.pruneHits.Inc()
			s.cacheHits.Add(int64(len(c.entries)))
		} else {
			_, clsSpan := s.cfg.Tracer.StartSpan(ctx, obs.StageClassify)
			clsSpan.SetAttr("mode", "delta")
			t0 := time.Now()
			fres, err := c.forest.Score(passCtx, toScore)
			if h := s.detPassLat["forest"]; h != nil {
				h.ObserveDuration(time.Since(t0))
			}
			if err != nil {
				clsSpan.End()
				return s.passAborted(c, ctx, passCtx, err)
			}
			report := fres.Report
			if fres.Escalated {
				// The session had to recompute its plan and the global
				// prune thresholds moved: the pruning fate of untouched
				// domains may have changed, so the per-domain delta
				// cannot prove the cache. Escalate to a full pass (the
				// session now holds a fresh plan, so it costs one
				// extraction sweep, not a second graph scan).
				clsSpan.SetAttr("prune", "shifted")
				clsSpan.End()
				flush = true
			} else {
				clsSpan.SetAttr("prune", pruneAttr(report.PrunedCached))
				clsSpan.SetAttr("pruned_cached", report.PrunedCached)
				clsSpan.SetAttr("targets", len(toScore))
				clsSpan.SetAttr("scored", len(fres.Scores))
				clsSpan.RecordChild(obs.StageFeatureExtract, report.Timing.Extract)
				clsSpan.End()
				s.countPrune(report.PrunedCached)

				newRows := make([]ClassifyDetection, 0, len(fres.Scores))
				for _, d := range fres.Scores {
					c.entries[d.Domain] = scoreEntry{score: d.Score, version: version}
					newRows = append(newRows, ClassifyDetection{
						Domain:       d.Domain,
						Score:        d.Score,
						Detected:     d.Score >= threshold,
						ScoreVersion: version,
					})
				}
				newMissing := make([]string, 0, len(fres.Missing))
				for _, name := range fres.Missing {
					c.entries[name] = scoreEntry{version: version, missing: true}
					newMissing = append(newMissing, name)
				}
				sort.Strings(newMissing)
				c.sortedRows = mergeRows(c.sortedRows, changed, newRows)
				c.sortedMissing = mergeMissing(c.sortedMissing, changed, newMissing)

				rescored = len(toScore)
				s.cacheMisses.Add(int64(rescored))
				s.cacheHits.Add(int64(len(c.entries) - rescored))
			}
		}
	}
	if flush {
		_, clsSpan := s.cfg.Tracer.StartSpan(ctx, obs.StageClassify)
		clsSpan.SetAttr("mode", "full")
		t0 := time.Now()
		fres, err := c.forest.Score(passCtx, nil)
		if h := s.detPassLat["forest"]; h != nil {
			h.ObserveDuration(time.Since(t0))
		}
		if err != nil {
			clsSpan.End()
			return s.passAborted(c, ctx, passCtx, err)
		}
		report := fres.Report
		clsSpan.SetAttr("prune", pruneAttr(report.PrunedCached))
		clsSpan.SetAttr("pruned_cached", report.PrunedCached)
		clsSpan.SetAttr("targets", len(fres.Scores)+len(fres.Missing))
		clsSpan.SetAttr("scored", len(fres.Scores))
		clsSpan.RecordChild(obs.StageFeatureExtract, report.Timing.Extract)
		clsSpan.End()
		s.countPrune(report.PrunedCached)

		c.entries = make(map[string]scoreEntry, len(fres.Scores))
		rows := make([]ClassifyDetection, 0, len(fres.Scores))
		for _, d := range fres.Scores {
			c.entries[d.Domain] = scoreEntry{score: d.Score, version: version}
			rows = append(rows, ClassifyDetection{
				Domain:       d.Domain,
				Score:        d.Score,
				Detected:     d.Score >= threshold,
				ScoreVersion: version,
			})
		}
		missing := make([]string, 0, len(fres.Missing))
		for _, name := range fres.Missing {
			c.entries[name] = scoreEntry{version: version, missing: true}
			missing = append(missing, name)
		}
		sort.Strings(missing)
		c.sortedRows, c.sortedMissing = rows, missing

		rescored = len(fres.Scores) + len(fres.Missing)
		s.cacheMisses.Add(int64(rescored))
		c.valid, c.day, c.detStamp = true, g.Day(), loadedAt
	}
	c.version = version
	c.graph = g
	// A completed pass means every served score is current up to this
	// snapshot's day: the score_cache watermark advances.
	s.cfg.Watermarks.Ack(obs.WatermarkScoreCache, obs.WatermarkSourceAll, g.Day())
	if c.overruns > 0 {
		c.overruns = 0
		if s.cfg.Health != nil {
			s.cfg.Health.Clear("classify_pass")
		}
	}

	// Auxiliary detectors observe the same pass (same snapshot, same
	// delta): their engines carry incremental state forward and
	// self-escalate on any version gap. Failures never break the primary.
	s.runAuxDetectors(passCtx, g, version, since, delta)

	res := &classifyAllResult{
		graph:    g,
		version:  version,
		rows:     c.sortedRows,
		missing:  c.sortedMissing,
		rescored: rescored,
	}

	// Audit pass: record domains that crossed the detection threshold
	// since the previous pass, then refresh the previous-pass state.
	// The caller holds c.mu, so passes serialize and the state cannot
	// race.
	if s.cfg.Audit != nil {
		s.auditNewDetections(c, res, det)
	}
	newState := make(map[string]bool, len(res.rows))
	for _, row := range res.rows {
		if row.Detected {
			newState[row.Domain] = true
		}
	}
	c.detected = newState
	return res, nil
}

// passAborted handles a failed classify-all pass. A deadline overrun —
// the pass context expired while the caller's own context is still live
// — is the graceful-degradation path: count it, escalate the watchdog
// after passOverrunEscalate consecutive overruns, and serve the
// last-good cached rows stale-marked when a completed pass exists. Any
// other failure (plain pass error, caller disconnected, daemon shutting
// down) propagates as-is. Partial results of the aborted pass are never
// installed: the caller returns before the cache is updated, and the
// core session/LBP engine discard their own partial state on
// cancellation. Caller holds c.mu.
func (s *Server) passAborted(c *scoreCache, reqCtx, passCtx context.Context, err error) (*classifyAllResult, error) {
	if passCtx.Err() == nil || reqCtx.Err() != nil {
		return nil, err
	}
	s.passDeadlineExceeded.Inc()
	c.overruns++
	s.log.Warn("classify pass exceeded deadline",
		"deadline", s.cfg.PassDeadline.String(),
		"consecutive_overruns", c.overruns,
		"last_good", c.valid,
		"err", err)
	if c.overruns >= passOverrunEscalate && s.cfg.Health != nil {
		s.cfg.Health.Set("classify_pass", health.Degraded,
			fmt.Sprintf("%d consecutive classify passes exceeded the %s deadline",
				c.overruns, s.cfg.PassDeadline))
	}
	if !c.valid {
		return nil, err
	}
	return &classifyAllResult{
		graph:   c.graph,
		version: c.version,
		rows:    c.sortedRows,
		missing: c.sortedMissing,
		stale:   true,
	}, nil
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

// auditNewDetections appends one audit record per newly detected domain:
// detected in this pass, not detected in the previous one. The feature
// vector is extracted from the labeled live snapshot the pass classified
// against (the pre-prune graph, so pruned-away context is still visible
// to the analyst) with the F2 window of det, the detector that scored the
// pass; evidence machines are capped at auditMaxMachines.
func (s *Server) auditNewDetections(c *scoreCache, res *classifyAllResult, det *core.Detector) {
	var ex *features.Extractor
	threshold := det.Threshold()
	aux := s.auxVerdicts(res.version)
	for _, row := range res.rows {
		if !row.Detected || c.detected[row.Domain] {
			continue
		}
		if ex == nil {
			var err error
			ex, err = features.NewExtractor(res.graph, s.cfg.Activity, s.cfg.Abuse, det.ActivityWindow())
			if err != nil {
				s.auditLog.Warn("audit extractor failed", "err", err)
				return
			}
		}
		rec := obs.AuditRecord{
			Day:          res.graph.Day(),
			Domain:       row.Domain,
			Score:        row.Score,
			Threshold:    threshold,
			Reason:       obs.ReasonNewDetection,
			GraphVersion: res.version,
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
		if aux != nil {
			rec.Detectors = aux.detectorVerdicts(row.Domain, row.Score, threshold)
		}
		if d, ok := res.graph.DomainIndex(row.Domain); ok {
			v := features.BorrowVector()
			ex.VectorInto(d, v)
			rec.Features = make(map[string]float64, len(v))
			for i, name := range features.Names() {
				rec.Features[name] = v[i]
			}
			features.ReturnVector(v)
			machines := res.graph.MachinesOf(d)
			rec.MachinesTotal = len(machines)
			for _, m := range machines {
				if len(rec.Machines) == auditMaxMachines {
					break
				}
				rec.Machines = append(rec.Machines, res.graph.MachineID(m))
			}
		}
		if err := s.cfg.Audit.Append(rec); err != nil {
			s.auditLog.Warn("audit append failed", "domain", row.Domain, "err", err)
			continue
		}
		s.auditLog.Info("domain newly detected",
			"domain", row.Domain, "score", row.Score, "threshold", threshold,
			"day", rec.Day, "graph_version", res.version, "machines", rec.MachinesTotal)
	}
}

// cachedScore looks up one domain's cached classify-all score, valid
// only when the cache is current for the given graph version.
func (s *Server) cachedScore(name string, version uint64) (scoreEntry, bool) {
	c := &s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid || c.version != version {
		return scoreEntry{}, false
	}
	e, ok := c.entries[name]
	if !ok || e.missing {
		return scoreEntry{}, false
	}
	return e, true
}
