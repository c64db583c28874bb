package server

import (
	"context"
	"os"
	"time"

	"segugio/internal/detector"
	"segugio/internal/graph"
	"segugio/internal/obs"
)

// auxScores holds the auxiliary detector plugins' scores (every enabled
// detector except the primary forest, which classifyAll drives itself) for
// one pass's snapshot, by plugin name. It is part of the pass value:
// responses and audit records decorate their rows from the pass they serve.
type auxScores map[string]pluginScores

// pluginScores is one plugin's score per unknown domain, and the score at
// or above which the plugin counts a domain as detected.
type pluginScores struct {
	scores    map[string]float64
	threshold float64
}

// buildAux constructs the auxiliary plugin set from the enabled names
// and tuning. The forest is excluded: it is not a plugin.
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
// pass carries no scores for that plugin and it retries next pass (the
// engines self-escalate on version gaps). Called with passMu held, so
// passes serialize.
func (s *Server) runAuxDetectors(ctx context.Context, g *graph.Graph, version, since uint64, delta graph.Delta) auxScores {
	var out auxScores
	pass := detector.Pass{Graph: g, Version: version, Since: since, Delta: delta}
	for _, p := range s.auxPlugins {
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
		if out == nil {
			out = auxScores{}
		}
		out[name] = pluginScores{scores: scores, threshold: p.Threshold()}
	}
	return out
}

// verdicts assembles one domain's per-detector verdicts: the forest's,
// each aux plugin's that scored the domain, and the fused ensemble under
// "fused". Nil when no aux detector scored the pass (responses then omit
// per-detector maps, keeping the forest-only wire format byte-identical).
func (a auxScores) verdicts(domain string, forestScore, forestThreshold float64) map[string]detector.Verdict {
	if len(a) == 0 {
		return nil
	}
	verdicts := map[string]detector.Verdict{
		"forest": {Score: forestScore, Detected: forestScore >= forestThreshold},
	}
	for name, p := range a {
		if sc, ok := p.scores[domain]; ok {
			verdicts[name] = detector.Verdict{Score: sc, Detected: sc >= p.threshold}
		}
	}
	verdicts[detector.FusedName] = detector.Fuse(verdicts)
	return verdicts
}

// detectorScores is one response row's per-detector score map.
func (a auxScores) detectorScores(domain string, forestScore, forestThreshold float64) map[string]float64 {
	verdicts := a.verdicts(domain, forestScore, forestThreshold)
	if verdicts == nil {
		return nil
	}
	out := make(map[string]float64, len(verdicts))
	for name, v := range verdicts {
		out[name] = v.Score
	}
	return out
}

// detectorVerdicts is detectorScores for audit records: full verdicts
// (score plus detected) per plugin.
func (a auxScores) detectorVerdicts(domain string, forestScore, forestThreshold float64) map[string]obs.DetectorVerdict {
	verdicts := a.verdicts(domain, forestScore, forestThreshold)
	if verdicts == nil {
		return nil
	}
	out := make(map[string]obs.DetectorVerdict, len(verdicts))
	for name, v := range verdicts {
		out[name] = obs.DetectorVerdict{Score: v.Score, Detected: v.Detected}
	}
	return out
}

// ReloadTuning re-reads the detector tuning file (when configured) and
// rebuilds the auxiliary plugins with the new knobs. Incremental plugin
// state restarts cold: the next pass self-escalates to a full
// propagation, exactly like a detector reload forces a full forest pass.
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
	// passMu serializes the swap against an in-flight classify pass:
	// swapping (and especially Closing the old plugins) mid-pass would
	// race with a plugin's Prepare/Score.
	s.passMu.Lock()
	defer s.passMu.Unlock()
	for _, p := range s.auxPlugins {
		p.Close()
	}
	s.auxPlugins = plugins
	return nil
}
