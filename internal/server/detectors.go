package server

import (
	"context"
	"os"
	"slices"
	"sync"
	"time"

	"segugio/internal/detector"
	"segugio/internal/graph"
	"segugio/internal/obs"
)

// auxState holds the auxiliary detector plugins (every enabled detector
// except the primary forest, which the score cache drives) and their
// latest scores. Plugins are driven only from classifyAll, which the
// cache mutex serializes; the state mutex covers the score maps read by
// response decoration and the plugin slice swapped by tuning reloads.
type auxState struct {
	mu      sync.Mutex
	plugins []detector.Detector
	// version is the graph version scores were computed at; responses
	// only attach per-detector scores matching their own snapshot.
	version    uint64
	scores     map[string]map[string]float64
	thresholds map[string]float64
}

// auxVerdictSource is an immutable read of the aux scores for one graph
// version, nil when no aux detector has scored that version.
type auxVerdictSource struct {
	scores     map[string]map[string]float64
	thresholds map[string]float64
}

// buildAux constructs the auxiliary plugin set from the enabled names
// and tuning. The forest is excluded: the score cache owns it.
func buildAux(names []string, tuning detector.Tuning) ([]detector.Detector, error) {
	var out []detector.Detector
	for _, name := range names {
		if name == "forest" {
			continue
		}
		d, err := detector.New(name, detector.Config{Tuning: tuning})
		if err != nil {
			for _, p := range out {
				p.Close()
			}
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// runAuxDetectors drives every auxiliary plugin through one classify
// pass: Prepare propagates its incremental state onto the new snapshot,
// Score(nil) refreshes the full unknown-domain score set. A plugin
// error is logged and counted but never fails the primary pass — the
// plugin keeps its previous scores and retries next pass (the engines
// self-escalate on version gaps). Called with the score-cache mutex
// held, so passes serialize.
func (s *Server) runAuxDetectors(ctx context.Context, g *graph.Graph, version, since uint64, delta graph.Delta) {
	s.aux.mu.Lock()
	plugins := slices.Clone(s.aux.plugins)
	s.aux.mu.Unlock()
	if len(plugins) == 0 {
		return
	}
	pass := detector.Pass{
		Graph: g, Version: version, Since: since, Delta: delta,
		Activity: s.cfg.Activity, Abuse: s.cfg.Abuse,
	}
	for _, p := range plugins {
		name := p.Name()
		stage := obs.StageLBPPropagate
		if name != "lbp" {
			stage = "detector." + name
		}
		_, span := s.cfg.Tracer.StartSpan(ctx, stage)
		t0 := time.Now()
		res, err := func() (*detector.Result, error) {
			if err := p.Prepare(ctx, pass); err != nil {
				return nil, err
			}
			return p.Score(ctx, nil)
		}()
		took := time.Since(t0)
		if h := s.detPassLat[name]; h != nil {
			h.ObserveDuration(took)
		}
		if err != nil {
			span.SetAttr("err", err)
			span.End()
			if c := s.detPassErrs[name]; c != nil {
				c.Inc()
			}
			s.log.Warn("detector pass failed", "detector", name, "err", err)
			continue
		}
		span.SetAttr("mode", res.Stats.Mode)
		span.SetAttr("iterations", res.Stats.Iterations)
		span.SetAttr("updates", res.Stats.Updates)
		span.SetAttr("scored", len(res.Scores))
		span.End()
		if name == "lbp" {
			if s.lbpIterations != nil {
				s.lbpIterations.SetInt(int64(res.Stats.Iterations))
			}
			if s.lbpResidualQueue != nil {
				s.lbpResidualQueue.SetInt(int64(res.Stats.PeakQueue))
			}
			if c := s.lbpPasses[res.Stats.Mode]; c != nil {
				c.Inc()
			}
		}
		scores := make(map[string]float64, len(res.Scores))
		for _, sc := range res.Scores {
			scores[sc.Domain] = sc.Score
		}
		s.aux.mu.Lock()
		if s.aux.scores == nil {
			s.aux.scores = map[string]map[string]float64{}
			s.aux.thresholds = map[string]float64{}
		}
		s.aux.scores[name] = scores
		s.aux.thresholds[name] = p.Threshold()
		s.aux.version = version
		s.aux.mu.Unlock()
	}
}

// auxVerdicts returns the aux score source when scores current for the
// given graph version exist, else nil (responses then omit per-detector
// maps, keeping the forest-only wire format byte-identical).
func (s *Server) auxVerdicts(version uint64) *auxVerdictSource {
	s.aux.mu.Lock()
	defer s.aux.mu.Unlock()
	if len(s.aux.scores) == 0 || s.aux.version != version {
		return nil
	}
	return &auxVerdictSource{scores: s.aux.scores, thresholds: s.aux.thresholds}
}

// detectorScores assembles one response row's per-detector score map:
// the forest score, each aux plugin's score for the domain, and the
// fused ensemble score under "fused".
func (src *auxVerdictSource) detectorScores(domain string, forestScore float64, forestThreshold float64) map[string]float64 {
	verdicts := map[string]detector.Verdict{
		"forest": {Score: forestScore, Detected: forestScore >= forestThreshold},
	}
	for name, scores := range src.scores {
		if sc, ok := scores[domain]; ok {
			verdicts[name] = detector.Verdict{Score: sc, Detected: sc >= src.thresholds[name]}
		}
	}
	fused := detector.Fuse(verdicts)
	out := make(map[string]float64, len(verdicts)+1)
	for name, v := range verdicts {
		out[name] = v.Score
	}
	out[detector.FusedName] = fused.Score
	return out
}

// detectorVerdicts is detectorScores for audit records: full verdicts
// (score plus detected) per plugin, including the fused ensemble.
func (src *auxVerdictSource) detectorVerdicts(domain string, forestScore float64, forestThreshold float64) map[string]obs.DetectorVerdict {
	verdicts := map[string]detector.Verdict{
		"forest": {Score: forestScore, Detected: forestScore >= forestThreshold},
	}
	for name, scores := range src.scores {
		if sc, ok := scores[domain]; ok {
			verdicts[name] = detector.Verdict{Score: sc, Detected: sc >= src.thresholds[name]}
		}
	}
	fused := detector.Fuse(verdicts)
	out := make(map[string]obs.DetectorVerdict, len(verdicts)+1)
	for name, v := range verdicts {
		out[name] = obs.DetectorVerdict{Score: v.Score, Detected: v.Detected}
	}
	out[detector.FusedName] = obs.DetectorVerdict{Score: fused.Score, Detected: fused.Detected}
	return out
}

// ReloadTuning re-reads the detector tuning file (when configured) and
// rebuilds the auxiliary plugins with the new knobs. Incremental plugin
// state restarts cold: the next pass self-escalates to a full
// propagation, exactly like a detector reload flushes the score cache.
func (s *Server) reloadTuning() error {
	tuning := s.cfg.Tuning
	if s.cfg.TuningPath != "" {
		f, err := os.Open(s.cfg.TuningPath)
		if err != nil {
			return err
		}
		tuning, err = detector.LoadTuning(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	plugins, err := buildAux(s.cfg.Detectors, tuning)
	if err != nil {
		return err
	}
	// The score-cache mutex serializes the swap against an in-flight
	// classify pass: runAuxDetectors clones the plugin slice and drives
	// the clones outside aux.mu, so swapping (and especially Closing the
	// old plugins) mid-pass would race with a plugin's Prepare/Score.
	// Lock order is cache.mu then aux.mu, same as classifyAll's.
	s.cache.mu.Lock()
	s.aux.mu.Lock()
	old := s.aux.plugins
	s.aux.plugins = plugins
	s.aux.mu.Unlock()
	for _, p := range old {
		p.Close()
	}
	s.cache.mu.Unlock()
	return nil
}
