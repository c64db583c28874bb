// Package core assembles Segugio's end-to-end pipeline (paper Figure 2):
// label the machine-domain behavior graph from ground-truth feeds, prune
// it with the conservative rules R1-R4, measure the 11 statistical
// features of every known domain with its own label hidden, train the
// behavior-based classifier, and at deployment time score the unknown
// domains of a later observation window to detect new malware-control
// domains and enumerate the machines that query them.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"segugio/internal/activity"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/ml"
	"segugio/internal/pdns"
)

// Config parameterizes the pipeline. DefaultConfig returns the paper's
// settings.
type Config struct {
	// ActivityWindow is the F2 look-back in days (paper: 14).
	ActivityWindow int
	// Prune holds the R1-R4 thresholds.
	Prune graph.PruneConfig
	// DisablePruning skips R1-R4, for the pruning ablation.
	DisablePruning bool
	// ProberFilter, when non-nil, removes anomalous security-scanner
	// clients before pruning (paper Section VI's noise discussion).
	ProberFilter *graph.ProberConfig
	// NewModel builds the statistical classifier C given the training
	// class sizes (so implementations can weight the rare malware class).
	// Defaults to a random forest, the paper's primary choice.
	NewModel func(benign, malware int) ml.Model
	// FeatureColumns optionally restricts the model to a subset of the 11
	// features (the Figure 7 ablations). Nil means all features.
	FeatureColumns []int
}

// DefaultConfig returns the paper's pipeline settings.
func DefaultConfig() Config {
	return Config{
		ActivityWindow: 14,
		Prune:          graph.DefaultPruneConfig(),
		NewModel:       DefaultModel,
	}
}

// DefaultModel builds the default random forest, weighting the malware
// class inversely to its prevalence so ISP-scale imbalance does not
// starve the split search. The cap keeps ambiguous feature cells (one
// malware example among several benign) scoring below pure-malware
// cells, which is what low-false-positive operating points live on.
func DefaultModel(benign, malware int) ml.Model {
	w := 1.0
	if malware > 0 && benign > malware {
		w = math.Min(float64(benign)/float64(malware), 10)
	}
	return ml.NewRandomForest(ml.RandomForestConfig{
		NumTrees:       96,
		MaxDepth:       14,
		MinLeaf:        4,
		SubsampleSize:  200000,
		PositiveWeight: w,
		Seed:           1,
	})
}

// Timing is the per-phase wall-clock breakdown the efficiency experiment
// (Section IV-G) reports.
type Timing struct {
	Prune   time.Duration
	Extract time.Duration
	Fit     time.Duration
	Score   time.Duration
}

// Total sums the phases.
func (t Timing) Total() time.Duration { return t.Prune + t.Extract + t.Fit + t.Score }

// TrainInput bundles one labeled observation window for training.
type TrainInput struct {
	// Graph is the labeled (ApplyLabels done), unpruned behavior graph.
	Graph *graph.Graph
	// Activity is the query-activity log covering the F2 look-back.
	Activity *activity.Log
	// Abuse is the passive-DNS abuse index covering the F3 look-back.
	// May be nil (F3 features become zero).
	Abuse *pdns.AbuseIndex
	// Exclude lists domains that must not become training examples (the
	// held-out test set of the train/test protocol).
	Exclude map[string]struct{}
}

// TrainReport summarizes a training run.
type TrainReport struct {
	Prune        graph.PruneStats
	TrainBenign  int
	TrainMalware int
	// ProbersRemoved lists anomalous clients dropped by the prober
	// filter, when enabled.
	ProbersRemoved []string
	Timing         Timing
}

// Pipeline errors.
var (
	ErrUnlabeled  = errors.New("core: graph must be labeled before use")
	ErrNoTraining = errors.New("core: training set is empty")
)

// Detector is a trained Segugio classifier plus its deployment threshold.
type Detector struct {
	cfg       Config
	model     ml.Model
	threshold float64
}

// Train runs the training half of the pipeline and returns a deployable
// Detector.
func Train(cfg Config, in TrainInput) (*Detector, *TrainReport, error) {
	if cfg.NewModel == nil {
		cfg.NewModel = DefaultModel
	}
	if in.Graph == nil || !in.Graph.Labeled() {
		return nil, nil, ErrUnlabeled
	}
	report := &TrainReport{}

	// Training measures its vectors through the same prune plan and
	// extractor a classify pass uses.
	prep, err := prepare(cfg, in.Graph, in.Activity, in.Abuse)
	if err != nil {
		return nil, nil, err
	}
	report.Prune = prep.stats
	report.ProbersRemoved = prep.probersRemoved
	report.Timing.Prune = prep.pruneTime

	t0 := time.Now()
	ds := features.TrainingSet(prep.ex, in.Exclude)
	report.Timing.Extract = time.Since(t0)
	if ds.Len() == 0 {
		return nil, nil, ErrNoTraining
	}
	report.TrainBenign, report.TrainMalware = ds.Counts()

	X := ds.X
	if cfg.FeatureColumns != nil {
		X = ml.SelectColumns(X, cfg.FeatureColumns)
	}
	model := cfg.NewModel(report.TrainBenign, report.TrainMalware)
	t0 = time.Now()
	if err := model.Fit(X, ds.Y); err != nil {
		return nil, nil, fmt.Errorf("core: fit: %w", err)
	}
	report.Timing.Fit = time.Since(t0)

	return &Detector{cfg: cfg, model: model, threshold: 0.5}, report, nil
}

// SetThreshold sets the deployment detection threshold (scores at or above
// it are labeled malware). The paper tunes it from an ROC curve to hit a
// false-positive budget.
func (d *Detector) SetThreshold(t float64) { d.threshold = t }

// Threshold returns the current detection threshold.
func (d *Detector) Threshold() float64 { return d.threshold }

// ActivityWindow returns the F2 look-back in days the detector was
// trained with and scores with; anything that shows an analyst the
// features behind a score must extract them with the same window.
func (d *Detector) ActivityWindow() int { return d.cfg.ActivityWindow }

// Detection is one scored domain. ID is the domain's node id in the graph
// the caller passed in (ClassifyInput.Graph).
type Detection struct {
	Domain string
	Score  float64
	ID     int32
}

// ClassifyInput bundles one labeled observation window for deployment.
type ClassifyInput struct {
	// Ctx, when non-nil and cancellable, bounds the pass: classification
	// checks it at stage boundaries and between scoring chunks, so a
	// deadline or cancellation aborts mid-sweep with the context's error
	// and no detections. Nil behaves like context.Background().
	Ctx context.Context
	// Graph is the labeled, unpruned behavior graph of the window.
	Graph    *graph.Graph
	Activity *activity.Log
	Abuse    *pdns.AbuseIndex
	// Domains optionally restricts classification to these names; nil
	// classifies every unknown-labeled domain in the (pruned) graph.
	Domains []string
}

// ctx returns the pass context, never nil.
func (in ClassifyInput) ctx() context.Context {
	if in.Ctx != nil {
		return in.Ctx
	}
	return context.Background()
}

// ClassifyReport summarizes a deployment run.
type ClassifyReport struct {
	Prune graph.PruneStats
	// Classified counts scored domains; Missing lists requested domains
	// that were absent from the pruned graph (they cannot be detected).
	Classified int
	Missing    []string
	// ProbersRemoved lists anomalous clients dropped by the prober
	// filter, when enabled.
	ProbersRemoved []string
	Timing         Timing
	// PrunedCached reports whether the prober-filter + prune pipeline was
	// served from a memoized session instead of rescanning the graph.
	PrunedCached bool

	prep *prepared
}

// PrunedGraph returns the pruned graph classification measured, so
// callers can enumerate the machines behind each detection. The pass
// itself reads the snapshot through its prune plan; the pruned graph is
// built on the first call and shared by every report of the snapshot.
func (r *ClassifyReport) PrunedGraph() *graph.Graph { return r.prep.prunedGraph() }

// prepared is the memoizable per-snapshot preprocessing of a classify
// pass: the combined prober-filter + prune plan and the feature
// extractor over it. It is immutable once built (the pruned graph is
// built once, on request), so concurrent passes may share one.
type prepared struct {
	src      *graph.Graph
	activity *activity.Log
	abuse    *pdns.AbuseIndex
	// plan is nil when the detector has no prober filter and pruning
	// disabled: the extractor then measures src itself.
	plan           *graph.PrunePlan
	stats          graph.PruneStats
	probersRemoved []string
	ex             *features.Extractor
	pruneTime      time.Duration

	prunedOnce sync.Once
	pruned     *graph.Graph
}

// prepare runs the O(graph) half of a classify pass once: one combined
// prober-filter + prune scan and extractor setup. Nothing is copied: the
// extractor reads the snapshot through the plan.
func prepare(cfg Config, g *graph.Graph, act *activity.Log, abuse *pdns.AbuseIndex) (*prepared, error) {
	p := &prepared{src: g, activity: act, abuse: abuse}
	var err error
	if cfg.ProberFilter != nil || !cfg.DisablePruning {
		t0 := time.Now()
		p.plan, err = graph.NewPrunePlan(g, cfg.ProberFilter, cfg.Prune, cfg.DisablePruning)
		if err != nil {
			return nil, fmt.Errorf("core: prune: %w", err)
		}
		p.stats = p.plan.Stats()
		p.probersRemoved = p.plan.ProbersRemoved()
		p.pruneTime = time.Since(t0)
		p.ex, err = features.NewPlanExtractor(p.plan, act, abuse, cfg.ActivityWindow)
	} else {
		p.ex, err = features.NewExtractor(g, act, abuse, cfg.ActivityWindow)
	}
	if err != nil {
		return nil, fmt.Errorf("core: extractor: %w", err)
	}
	return p, nil
}

// prunedGraph materializes the plan once; without a plan it is src.
func (p *prepared) prunedGraph() *graph.Graph {
	p.prunedOnce.Do(func() {
		p.pruned = p.src
		if p.plan != nil {
			p.pruned = p.plan.Materialize()
		}
	})
	return p.pruned
}

// fillReport copies the prepared pass's prune outcome into the report.
func (p *prepared) fillReport(report *ClassifyReport, cached bool) {
	report.Prune = p.stats
	report.ProbersRemoved = p.probersRemoved
	report.PrunedCached = cached
	report.prep = p
	if !cached {
		report.Timing.Prune = p.pruneTime
	}
}

// Classify scores the unknown domains of a new observation window.
// Detections are returned for every scored domain (not only those above
// the threshold), sorted by descending score, so callers can build full
// ROC curves. It is a one-shot ClassifySession: callers that classify
// successive snapshots keep a session instead.
func (d *Detector) Classify(in ClassifyInput) ([]Detection, *ClassifyReport, error) {
	return d.NewSession().Classify(in)
}

// scoreChunk bounds how many targets a pass extracts and scores between
// context checks — the granularity at which a deadline can abort a sweep
// mid-way.
const scoreChunk = 4096

// scoreTargets measures the features of the target nodes of ex's graph
// and scores them in scoreChunk-sized sweeps with a context check between
// each, so a pass over a large graph can be abandoned mid-sweep. Scoring
// is per row, so the chunked order is bit-identical to one batch and to a
// serial per-domain loop. A Detection.ID is the target's node id.
func (d *Detector) scoreTargets(ctx context.Context, ex *features.Extractor, targets []int32, report *ClassifyReport) ([]Detection, error) {
	g := ex.Graph()
	dets := make([]Detection, 0, len(targets))
	for start := 0; start < len(targets); start += scoreChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := targets[start:min(start+scoreChunk, len(targets))]

		t0 := time.Now()
		rows := features.VectorsOf(ex, chunk)
		report.Timing.Extract += time.Since(t0)

		t0 = time.Now()
		if d.cfg.FeatureColumns != nil {
			rows = ml.SelectColumns(rows, d.cfg.FeatureColumns)
		}
		for i, score := range ml.ScoreAll(d.model, rows) {
			dets = append(dets, Detection{Domain: g.DomainName(chunk[i]), Score: score, ID: chunk[i]})
		}
		report.Timing.Score += time.Since(t0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	report.Classified = len(dets)
	sortDetections(dets)
	return dets, nil
}

// sortDetections orders by descending score, then ascending domain.
func sortDetections(dets []Detection) {
	slices.SortFunc(dets, func(a, b Detection) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Domain, b.Domain)
	})
}

// Detected filters detections by the deployment threshold.
func (d *Detector) Detected(dets []Detection) []Detection {
	var out []Detection
	for _, det := range dets {
		if det.Score >= d.threshold {
			out = append(out, det)
		}
	}
	return out
}

// InfectedMachines enumerates the machines of g that query any of the
// detected domains — the paper's point that Segugio identifies new
// control domains and the compromised machines behind them in one shot
// (Section VI).
func InfectedMachines(g *graph.Graph, detected []Detection) []string {
	seen := make(map[int32]struct{})
	for _, det := range detected {
		di, ok := g.DomainIndex(det.Domain)
		if !ok {
			continue
		}
		for _, m := range g.MachinesOf(di) {
			seen[m] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, g.MachineID(m))
	}
	sort.Strings(out)
	return out
}
