package experiments

import (
	"fmt"
	"strings"

	"segugio/internal/core"
	"segugio/internal/eval"
	"segugio/internal/graph"
	"segugio/internal/intel"
)

// FPBudgets are the false-positive rates at which the paper reads its
// figures (0.1% headline, plus the 0.5% and 1% points of Section IV-E).
var FPBudgets = []float64{0.001, 0.005, 0.01}

// CrossOptions tunes one train/test experiment.
type CrossOptions struct {
	// TrainBlacklist labels the training day (default: the universe's
	// commercial feed). TestBlacklist provides the test-set ground truth
	// (default: TrainBlacklist).
	TrainBlacklist *intel.Blacklist
	TestBlacklist  *intel.Blacklist
	// TestFraction of eligible known domains is held out (default 0.6).
	TestFraction float64
	// Seed drives the held-out sampling.
	Seed int64
	// Core optionally overrides the pipeline configuration (feature
	// ablations, alternative classifiers, pruning off).
	Core *core.Config
	// Split optionally supplies a pre-built test split (cross-family
	// folds, cross-blacklist test sets); TestFraction/Seed are then
	// ignored.
	Split *Split
}

// CrossResult is one train/test outcome with the full ROC curve.
type CrossResult struct {
	TrainNet, TestNet string
	TrainDay, TestDay int
	TestMalware       int
	TestBenign        int
	Curve             []eval.ROCPoint
	AUC               float64
	PartialAUC01      float64 // normalized area under FPR <= 0.01
	TPRAt             map[float64]float64
	Train             *core.TrainReport
	Classify          *core.ClassifyReport
	Detector          *core.Detector
	Scores            []float64
	Labels            []int
	Domains           []string
	PrunedTestGraph   *graph.Graph
	// Hidden is the held-out set whose ground truth was withheld.
	Hidden              map[string]struct{}
	MissingTestDomains  int // test domains pruned/absent from the test graph
	MissingTestMalware  int
	TrainingSetExamples int
}

// RunCross trains Segugio on (trainNet, trainDay) and evaluates it on the
// held-out known domains of (testNet, testDay), following the rigorous
// protocol of Section IV-A: the test domains' ground truth is hidden from
// labeling, feature measurement, and training on both days.
func RunCross(trainNet *Network, trainDay int, testNet *Network, testDay int, opts CrossOptions) (*CrossResult, error) {
	if opts.TrainBlacklist == nil {
		opts.TrainBlacklist = trainNet.Commercial
	}
	if opts.TestBlacklist == nil {
		opts.TestBlacklist = opts.TrainBlacklist
	}
	if opts.TestFraction == 0 {
		opts.TestFraction = 0.6
	}
	coreCfg := core.DefaultConfig()
	if opts.Core != nil {
		coreCfg = *opts.Core
	}

	dd1 := trainNet.Day(trainDay)
	dd2 := testNet.Day(testDay)

	split := opts.Split
	if split == nil {
		split = NewSplit(testNet, dd1.Graph, dd2.Graph, opts.TestBlacklist, trainDay, opts.TestFraction, opts.Seed)
	}

	g1 := trainNet.Labeled(dd1, opts.TrainBlacklist, split.Hidden)
	abuse1 := trainNet.Abuse(trainDay, opts.TrainBlacklist)
	det, trainReport, err := core.Train(coreCfg, core.TrainInput{
		Graph: g1, Activity: dd1.Activity, Abuse: abuse1, Exclude: split.Hidden,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train %s day %d: %w", trainNet.Name(), trainDay, err)
	}

	g2 := testNet.Labeled(dd2, opts.TrainBlacklist, split.Hidden)
	abuse2 := testNet.Abuse(testDay, opts.TrainBlacklist)
	dets, classifyReport, err := det.Classify(core.ClassifyInput{
		Graph: g2, Activity: dd2.Activity, Abuse: abuse2, Domains: split.Domains,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: classify %s day %d: %w", testNet.Name(), testDay, err)
	}

	res := &CrossResult{
		TrainNet: trainNet.Name(), TestNet: testNet.Name(),
		TrainDay: trainDay, TestDay: testDay,
		TestMalware: split.Malware(), TestBenign: split.Benign(),
		Train: trainReport, Classify: classifyReport,
		Detector:            det,
		Hidden:              split.Hidden,
		Domains:             split.Domains,
		Labels:              split.Labels,
		PrunedTestGraph:     classifyReport.PrunedGraph(),
		TrainingSetExamples: trainReport.TrainBenign + trainReport.TrainMalware,
	}

	// Score vector over the whole test set; domains absent from the
	// pruned test graph cannot be detected and score zero.
	byDomain := make(map[string]float64, len(dets))
	for _, d := range dets {
		byDomain[d.Domain] = d.Score
	}
	res.Scores = make([]float64, len(split.Domains))
	missing := make(map[string]struct{}, len(classifyReport.Missing))
	for _, m := range classifyReport.Missing {
		missing[m] = struct{}{}
	}
	for i, name := range split.Domains {
		res.Scores[i] = byDomain[name]
		if _, miss := missing[name]; miss {
			res.MissingTestDomains++
			if split.Labels[i] == 1 {
				res.MissingTestMalware++
			}
		}
	}

	curve, err := eval.ROC(res.Scores, res.Labels)
	if err != nil {
		return nil, fmt.Errorf("experiments: roc: %w", err)
	}
	res.Curve = curve
	res.AUC, _ = eval.AUC(curve)
	res.PartialAUC01, _ = eval.PartialAUC(curve, 0.01)
	res.TPRAt = make(map[float64]float64, len(FPBudgets))
	for _, b := range FPBudgets {
		res.TPRAt[b] = eval.TPRAtFPR(curve, b)
	}
	return res, nil
}

// Label renders the experiment identity ("ISP1 day 170 -> ISP2 day 185").
func (r *CrossResult) Label() string {
	return fmt.Sprintf("%s day %d -> %s day %d (gap %d days)",
		r.TrainNet, r.TrainDay, r.TestNet, r.TestDay, r.TestDay-r.TrainDay)
}

// Summary renders the headline numbers of one run.
func (r *CrossResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Label())
	fmt.Fprintf(&b, "  test set: %d malware, %d benign (%d unobserved on test day, %d of them malware)\n",
		r.TestMalware, r.TestBenign, r.MissingTestDomains, r.MissingTestMalware)
	fmt.Fprintf(&b, "  training set: %d benign, %d malware\n", r.Train.TrainBenign, r.Train.TrainMalware)
	fmt.Fprintf(&b, "  AUC %.4f, partial AUC(FPR<=1%%) %.4f\n", r.AUC, r.PartialAUC01)
	for _, budget := range FPBudgets {
		fmt.Fprintf(&b, "  TPR @ %.2f%% FP: %5.1f%%\n", budget*100, r.TPRAt[budget]*100)
	}
	return b.String()
}

// CurveCSV renders the ROC curve as CSV (threshold, fpr, tpr), downsampled
// to at most n points.
func (r *CrossResult) CurveCSV(n int) string {
	var b strings.Builder
	b.WriteString("threshold,fpr,tpr\n")
	for _, p := range eval.Downsample(r.Curve, n) {
		fmt.Fprintf(&b, "%.6f,%.6f,%.6f\n", p.Threshold, p.FPR, p.TPR)
	}
	return b.String()
}
