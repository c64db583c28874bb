package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/eval"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/ml"
	"segugio/internal/pdns"
	"segugio/internal/trace"
)

// smallScenario builds a labeled graph + context from the synthetic ISP
// generator for one day.
type scenario struct {
	cat   *trace.Catalog
	gen   *trace.Generator
	bl    *intel.Blacklist
	wl    *intel.Whitelist
	sl    *dnsutil.SuffixList
	db    *pdns.DB
	cfg   trace.Config
	seedW int
}

func newScenario(t *testing.T, seed int64) *scenario {
	t.Helper()
	cfg := trace.DefaultConfig("CORE", seed)
	cfg.Machines = 1200
	cfg.BenignE2LDs = 1500
	cfg.TailDomains = 2000
	cat, err := trace.NewCatalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &scenario{cat: cat, gen: trace.NewGenerator(cat), cfg: cfg, sl: dnsutil.DefaultSuffixList()}
	s.bl = cat.Blacklist(trace.BlacklistConfig{Coverage: 0.7, MeanListingDelayDays: 2, Salt: 1})
	arch := cat.RankArchive(trace.RankArchiveConfig{Days: 15, ListLen: 1200, JitterFraction: 0.02})
	wl, err := intel.BuildWhitelist(arch, intel.WhitelistConfig{ExcludeZones: cat.KnownFreeRegZones(0.75)})
	if err != nil {
		t.Fatal(err)
	}
	s.wl = wl
	s.db = pdns.NewDB()
	cat.EmitPDNSHistory(s.db, 0, 200)
	return s
}

// dayContext labels a day's graph and builds its activity/abuse context.
func (s *scenario) dayContext(t *testing.T, day int, hidden map[string]struct{}) (*graph.Graph, *activity.Log, *pdns.AbuseIndex) {
	t.Helper()
	tr := s.gen.GenerateDay(day)
	g := trace.BuildGraph(tr, s.cat, s.sl)
	g.ApplyLabels(graph.LabelSources{Blacklist: s.bl, Whitelist: s.wl, AsOf: day, Hidden: hidden})
	log := activity.NewLog()
	s.cat.MarkActivity(log, s.sl, day-13, day)
	abuse := pdns.BuildAbuseIndex(s.db, day-150, day-1, func(d string) pdns.Verdict {
		if s.bl.Contains(d, day) {
			return pdns.VerdictMalware
		}
		if s.wl.ContainsDomain(d, s.sl) {
			return pdns.VerdictBenign
		}
		return pdns.VerdictUnknown
	})
	return g, log, abuse
}

func TestTrainRequiresLabeledGraph(t *testing.T) {
	b := graph.NewBuilder("X", 1, dnsutil.DefaultSuffixList())
	b.AddQuery("m", "d.com")
	g := b.Build()
	if _, _, err := Train(DefaultConfig(), TrainInput{Graph: g}); !errors.Is(err, ErrUnlabeled) {
		t.Fatalf("err = %v, want ErrUnlabeled", err)
	}
	if _, _, err := Train(DefaultConfig(), TrainInput{}); !errors.Is(err, ErrUnlabeled) {
		t.Fatalf("nil graph err = %v, want ErrUnlabeled", err)
	}
}

func TestTrainNoTrainingData(t *testing.T) {
	b := graph.NewBuilder("X", 1, dnsutil.DefaultSuffixList())
	for i := 0; i < 10; i++ {
		b.AddQuery("m1", "unknown"+string(rune('a'+i))+".com")
		b.AddQuery("m2", "unknown"+string(rune('a'+i))+".com")
	}
	g := b.Build()
	g.ApplyLabels(graph.LabelSources{AsOf: 1}) // no sources: all unknown
	_, _, err := Train(DefaultConfig(), TrainInput{Graph: g})
	if !errors.Is(err, ErrNoTraining) {
		t.Fatalf("err = %v, want ErrNoTraining", err)
	}
}

func TestTrainAndClassifyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline test")
	}
	s := newScenario(t, 31)
	t1, t2 := 170, 180

	// Known domains present on both days form the held-out test set.
	g1Raw := trace.BuildGraph(s.gen.GenerateDay(t1), s.cat, s.sl)
	g2Raw := trace.BuildGraph(s.gen.GenerateDay(t2), s.cat, s.sl)
	testSet := map[string]struct{}{}
	var testDomains []string
	var testLabels []int
	rng := rand.New(rand.NewSource(9))
	for _, name := range domainNames(g2Raw) {
		if _, in1 := g1Raw.DomainIndex(name); !in1 {
			continue
		}
		isMal := s.bl.Contains(name, t1)
		isBen := s.wl.ContainsDomain(name, s.sl)
		if !isMal && !isBen {
			continue
		}
		if rng.Float64() > 0.7 {
			continue
		}
		testSet[name] = struct{}{}
		testDomains = append(testDomains, name)
		if isMal {
			testLabels = append(testLabels, 1)
		} else {
			testLabels = append(testLabels, 0)
		}
	}
	if countOnes(testLabels) < 20 {
		t.Fatalf("too few malware test domains: %d", countOnes(testLabels))
	}

	g1, log1, abuse1 := s.dayContext(t, t1, testSet)
	det, trainReport, err := Train(DefaultConfig(), TrainInput{
		Graph: g1, Activity: log1, Abuse: abuse1, Exclude: testSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trainReport.TrainMalware == 0 || trainReport.TrainBenign == 0 {
		t.Fatalf("degenerate training set: %+v", trainReport)
	}
	if trainReport.Prune.DomainsAfter >= trainReport.Prune.DomainsBefore {
		t.Error("pruning should reduce domains")
	}

	g2, log2, abuse2 := s.dayContext(t, t2, testSet)
	dets, classifyReport, err := det.Classify(ClassifyInput{
		Graph: g2, Activity: log2, Abuse: abuse2, Domains: testDomains,
	})
	if err != nil {
		t.Fatal(err)
	}
	if classifyReport.Classified == 0 {
		t.Fatal("nothing classified")
	}

	// Build ROC over the classified test domains (missing ones score 0).
	scoreByDomain := map[string]float64{}
	for _, d := range dets {
		scoreByDomain[d.Domain] = d.Score
	}
	scores := make([]float64, len(testDomains))
	for i, name := range testDomains {
		scores[i] = scoreByDomain[name]
	}
	curve, err := eval.ROC(scores, testLabels)
	if err != nil {
		t.Fatal(err)
	}
	// At this deliberately tiny scale each test-malware domain is worth
	// ~4% of TPR and a couple get pruned from the deployment-day graph,
	// so the bars sit below the paper's full-scale numbers (the experiment
	// harness asserts those at scale).
	auc, _ := eval.AUC(curve)
	if auc < 0.85 {
		t.Fatalf("cross-day AUC = %.3f, want >= 0.85", auc)
	}
	if tpr := eval.TPRAtFPR(curve, 0.01); tpr < 0.7 {
		t.Fatalf("TPR@1%%FP = %.3f, want >= 0.7", tpr)
	}

	// Detections are sorted by score.
	for i := 1; i < len(dets); i++ {
		if dets[i].Score > dets[i-1].Score {
			t.Fatal("detections not sorted by descending score")
		}
	}

	// Threshold filtering and infected-machine enumeration.
	det.SetThreshold(eval.ThresholdAtFPR(curve, 0.01))
	detected := det.Detected(dets)
	if len(detected) == 0 {
		t.Fatal("no detections above threshold")
	}
	machines := InfectedMachines(classifyReport.PrunedGraph(), detected)
	if len(machines) == 0 {
		t.Fatal("detected domains must implicate machines")
	}
}

func TestClassifyAllUnknownWhenDomainsNil(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test")
	}
	s := newScenario(t, 33)
	g1, log1, abuse1 := s.dayContext(t, 170, nil)
	det, _, err := Train(DefaultConfig(), TrainInput{Graph: g1, Activity: log1, Abuse: abuse1})
	if err != nil {
		t.Fatal(err)
	}
	g2, log2, abuse2 := s.dayContext(t, 175, nil)
	dets, report, err := det.Classify(ClassifyInput{Graph: g2, Activity: log2, Abuse: abuse2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 || report.Classified != len(dets) {
		t.Fatalf("classified %d detections, report says %d", len(dets), report.Classified)
	}
	// Every returned domain was unknown-labeled in the pruned graph.
	for _, d := range dets[:min(50, len(dets))] {
		di, ok := report.PrunedGraph().DomainIndex(d.Domain)
		if !ok {
			t.Fatalf("detection %s not in pruned graph", d.Domain)
		}
		if report.PrunedGraph().DomainLabel(di) != graph.LabelUnknown {
			t.Fatalf("detection %s is not unknown-labeled", d.Domain)
		}
	}
}

func TestClassifyReportsMissingDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test")
	}
	s := newScenario(t, 35)
	g1, log1, abuse1 := s.dayContext(t, 170, nil)
	det, _, err := Train(DefaultConfig(), TrainInput{Graph: g1, Activity: log1, Abuse: abuse1})
	if err != nil {
		t.Fatal(err)
	}
	g2, log2, abuse2 := s.dayContext(t, 175, nil)
	_, report, err := det.Classify(ClassifyInput{
		Graph: g2, Activity: log2, Abuse: abuse2,
		Domains: []string{"definitely-not-present.example"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Missing) != 1 {
		t.Fatalf("missing = %v, want one entry", report.Missing)
	}
}

func TestDetectorThreshold(t *testing.T) {
	d := &Detector{threshold: 0.5}
	dets := []Detection{{Domain: "a", Score: 0.9}, {Domain: "b", Score: 0.4}}
	if got := d.Detected(dets); len(got) != 1 || got[0].Domain != "a" {
		t.Fatalf("Detected = %v", got)
	}
	d.SetThreshold(0.3)
	if d.Threshold() != 0.3 {
		t.Fatal("SetThreshold did not stick")
	}
	if got := d.Detected(dets); len(got) != 2 {
		t.Fatalf("Detected = %v, want both", got)
	}
}

func TestInfectedMachines(t *testing.T) {
	b := graph.NewBuilder("X", 1, dnsutil.DefaultSuffixList())
	b.AddQuery("m1", "c2.new.com")
	b.AddQuery("m2", "c2.new.com")
	b.AddQuery("m3", "other.com")
	g := b.Build()
	got := InfectedMachines(g, []Detection{{Domain: "c2.new.com", Score: 1}})
	if len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("InfectedMachines = %v, want [m1 m2]", got)
	}
	if got := InfectedMachines(g, []Detection{{Domain: "absent.com"}}); len(got) != 0 {
		t.Fatalf("absent domain should implicate no machines, got %v", got)
	}
}

func TestTimingTotal(t *testing.T) {
	tm := Timing{Prune: 1, Extract: 2, Fit: 3, Score: 4}
	if tm.Total() != 10 {
		t.Fatalf("Total = %v, want 10", tm.Total())
	}
}

func TestDefaultModelBalancesClasses(t *testing.T) {
	m := DefaultModel(10000, 100)
	rf, ok := m.(*ml.RandomForest)
	if !ok {
		t.Fatalf("DefaultModel returned %T, want *ml.RandomForest", m)
	}
	_ = rf
	// Degenerate inputs must not panic or produce nonsense.
	_ = DefaultModel(0, 0)
	_ = DefaultModel(5, 10)
}

func domainNames(g *graph.Graph) []string {
	out := make([]string, g.NumDomains())
	for d := int32(0); d < int32(g.NumDomains()); d++ {
		out[d] = g.DomainName(d)
	}
	return out
}

func countOnes(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func TestTrainWithProberFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test")
	}
	s := newScenario(t, 61)
	g, log, abuse := s.dayContext(t, 170, nil)
	cfg := DefaultConfig()
	pf := graph.DefaultProberConfig()
	cfg.ProberFilter = &pf
	_, report, err := Train(cfg, TrainInput{Graph: g, Activity: log, Abuse: abuse})
	if err != nil {
		t.Fatal(err)
	}
	// The test population includes prober machines querying ~80% of all
	// active C&C domains; the filter must catch them.
	if len(report.ProbersRemoved) == 0 {
		t.Fatal("prober filter removed nothing despite prober machines in the population")
	}
	for _, id := range report.ProbersRemoved {
		if !strings.Contains(id, "CORE-m") {
			t.Fatalf("unexpected prober id %q", id)
		}
	}
}
