package experiments

import (
	"strings"
	"testing"

	"segugio/internal/belief"
)

func TestRunTable1(t *testing.T) {
	_, isp1, isp2 := sharedFixture(t)
	res, err := RunTable1([]*Network{isp1, isp2}, []int{170, 180})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.TotalDomains == 0 || r.TotalMachines == 0 || r.Edges == 0 {
			t.Fatalf("empty row: %+v", r)
		}
		if r.MalwareDomains == 0 || r.MalwareMachine == 0 {
			t.Fatalf("no labeled malware in row: %+v", r)
		}
		if r.BenignDomains >= r.TotalDomains {
			t.Fatalf("benign >= total: %+v", r)
		}
	}
	s := res.String()
	if !strings.Contains(s, "Table I") || !strings.Contains(s, "TISP1") {
		t.Fatalf("rendering broken:\n%s", s)
	}
}

func TestRunFig3(t *testing.T) {
	_, isp1, _ := sharedFixture(t)
	res, err := RunFig3(isp1, 170)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected < 30 {
		t.Fatalf("infected = %d, too few for a shape check", res.Infected)
	}
	// The paper's headline: ~70% query more than one control domain.
	if res.FracMoreThanOne < 0.5 || res.FracMoreThanOne > 0.9 {
		t.Fatalf("frac >1 = %.2f, want ~0.7", res.FracMoreThanOne)
	}
	// The tiny test population over-represents prober machines (2 probers
	// vs ~75 infections); at experiment scale this fraction is ~0.
	if res.FracMoreThanTwenty > 0.05 {
		t.Fatalf("frac >20 = %.3f, want ~0", res.FracMoreThanTwenty)
	}
	if !strings.Contains(res.String(), "Figure 3") {
		t.Fatal("rendering broken")
	}
}

func TestRunPruning(t *testing.T) {
	_, isp1, _ := sharedFixture(t)
	res, err := RunPruning([]*Network{isp1}, []int{170, 180})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDomainReduction <= 0 || res.AvgDomainReduction >= 1 {
		t.Fatalf("domain reduction = %.3f, want in (0,1)", res.AvgDomainReduction)
	}
	if res.AvgEdgeReduction <= 0 {
		t.Fatalf("edge reduction = %.3f, want > 0", res.AvgEdgeReduction)
	}
	if !strings.Contains(res.String(), "R1") {
		t.Fatal("rendering broken")
	}
}

func TestRunFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunFig7(isp1, 170, 178, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 4 {
		t.Fatalf("variants = %d, want 4", len(res.Variants))
	}
	byName := map[string]*CrossResult{}
	for _, v := range res.Variants {
		byName[v.Name] = v.Result
	}
	all := byName["All features"]
	noMachine := byName["No machine"]
	if all == nil || noMachine == nil {
		t.Fatal("missing variants")
	}
	// The paper's key finding: removing machine-behavior features hurts
	// low-FP detection.
	if noMachine.TPRAt[0.001] >= all.TPRAt[0.001] && noMachine.AUC >= all.AUC {
		t.Fatalf("no-machine (TPR %.3f AUC %.4f) should underperform all features (TPR %.3f AUC %.4f)",
			noMachine.TPRAt[0.001], noMachine.AUC, all.TPRAt[0.001], all.AUC)
	}
	if !strings.Contains(res.String(), "Figure 7") {
		t.Fatal("rendering broken")
	}
}

func TestRunFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunFig8(isp1, 175, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestMalware < 10 {
		t.Fatalf("pooled malware = %d, too few", res.TestMalware)
	}
	// Cross-family detection should still work (the paper reads >85% at
	// 0.1% FP at full scale; we accept a lower bar at test scale).
	if res.All.TPRAt[0.01] < 0.5 {
		t.Fatalf("cross-family TPR@1%% = %.3f, want >= 0.5", res.All.TPRAt[0.01])
	}
	if !strings.Contains(res.String(), "Figure 8") {
		t.Fatal("rendering broken")
	}
}

func TestRunTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	cross, err := RunCross(isp1, 170, isp1, 180, CrossOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTable3([]*CrossResult{cross}, map[string]*Network{"TISP1": isp1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row.FQDs > 0 {
		if row.E2LDs == 0 || row.E2LDs > row.FQDs {
			t.Fatalf("e2LD count inconsistent: %+v", row)
		}
		if row.Top10E2LDShare <= 0 || row.Top10E2LDShare > 1 {
			t.Fatalf("top-10 share out of range: %+v", row)
		}
	}
	if !strings.Contains(res.String(), "Table III") {
		t.Fatal("rendering broken")
	}
}

func TestRunFig10AndCrossBlacklist(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	fig10, err := RunFig10(isp1, 170, 178, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fig10.TestMalware == 0 {
		t.Fatal("fig10: no public-blacklist malware in test set")
	}
	if fig10.AUC < 0.75 {
		t.Fatalf("fig10 AUC = %.3f, want >= 0.75 with noisy public feeds", fig10.AUC)
	}

	cbl, err := RunCrossBlacklist(isp1, 170, 178, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cbl.PublicOnly == 0 {
		t.Fatal("no public-only domains")
	}
	if len(cbl.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(cbl.Points))
	}
	if !strings.Contains(cbl.String(), "Cross-blacklist") {
		t.Fatal("rendering broken")
	}
}

func TestRunFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunFig11([]*Network{isp1}, []int{170, 171}, 35, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDetections == 0 {
		t.Fatal("no detections at the 0.1% FP threshold")
	}
	if res.TrulyMalware == 0 {
		t.Fatal("detections should include truly malware-operated domains")
	}
	if res.LaterListed == 0 {
		t.Fatal("some detections should appear on the blacklist later")
	}
	for gap := range res.Gaps {
		if gap < 1 || gap > 35 {
			t.Fatalf("gap %d out of horizon", gap)
		}
	}
	if !strings.Contains(res.String(), "Figure 11") {
		t.Fatal("rendering broken")
	}
}

func TestRunPerf(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunPerf(isp1, 172)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges == 0 || res.Classified == 0 {
		t.Fatalf("degenerate perf run: %+v", res)
	}
	if res.LearningTotal() <= 0 {
		t.Fatal("learning total must be positive")
	}
	// The paper's shape: classification is much cheaper than learning.
	classify := res.Classify.Extract + res.Classify.Score
	if classify > res.LearningTotal() {
		t.Fatalf("classification (%v) should be cheaper than learning (%v)",
			classify, res.LearningTotal())
	}
	if !strings.Contains(res.String(), "LEARNING TOTAL") {
		t.Fatal("rendering broken")
	}
}

func TestRunFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunFig12([]*Network{isp1}, 170, 185, 13)
	if err != nil {
		t.Fatal(err)
	}
	isp := res.PerISP[0]
	if isp.NewC2 == 0 {
		t.Fatal("no newly blacklisted C&C domains")
	}
	// The headline shape (paper Figure 12): Segugio at a sub-1% FP budget
	// detects more new C&C than Notos can at ANY threshold; Notos's
	// ceiling is capped by its reject option and it pays a visibly
	// higher FP cost to reach that ceiling.
	if isp.Segugio.TPRAt[0.007] <= isp.Notos.BestTPR {
		t.Fatalf("Segugio TPR@0.7%%=%.3f should exceed Notos's best reachable TPR %.3f",
			isp.Segugio.TPRAt[0.007], isp.Notos.BestTPR)
	}
	if isp.Notos.BestTPR > 0.8 {
		t.Fatalf("Notos best TPR %.3f — reject option should cap it below 0.8", isp.Notos.BestTPR)
	}
	if isp.Notos.FPRAtBestTPR < 0.0005 {
		t.Fatalf("Notos reaches its best TPR at FPR %.4f — too cheap; the young-hostname FP cost is missing",
			isp.Notos.FPRAtBestTPR)
	}
	t.Logf("Segugio TPR@0.7%%FP=%.3f; Notos best TPR %.3f at FPR %.4f, rejected %d/%d new C&C",
		isp.Segugio.TPRAt[0.007], isp.Notos.BestTPR, isp.Notos.FPRAtBestTPR,
		isp.NotosReject.Malware, isp.NewC2)
	t4 := res.Table4
	if t4.Total > 0 {
		sum := t4.SuspiciousContent + t4.SandboxQueried + t4.MalwareIPs + t4.MalwarePrefixes + t4.NoEvidence
		if sum != t4.Total {
			t.Fatalf("Table IV breakdown %d != total %d", sum, t4.Total)
		}
	}
	if !strings.Contains(res.String(), "Table IV") {
		t.Fatal("rendering broken")
	}
}

func TestRunLBP(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunLBP(isp1, 170, 178, false, 17)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim — Segugio clearly beating LBP, especially at low
	// FP rates — reproduces at experiment scale (see EXPERIMENTS.md: at
	// 24k machines Segugio reaches ~98% vs LBP's ~71% TPR at 0.1% FP).
	// At this tiny fixture scale single-coincidence FPs dominate the
	// 0.1% regime for both systems, so the unit test only checks that
	// both produce sane, comparable curves.
	t.Logf("Segugio: AUC %.4f TPR@0.1%%=%.3f TPR@1%%=%.3f (%v); LBP: AUC %.4f TPR@0.1%%=%.3f TPR@1%%=%.3f (%v)",
		res.Segugio.AUC, res.Segugio.TPRAt[0.001], res.Segugio.TPRAt[0.01], res.SegugioTime,
		res.BP.AUC, res.BP.TPRAt[0.001], res.BP.TPRAt[0.01], res.BPTime)
	if res.Segugio.AUC < 0.8 {
		t.Fatalf("Segugio AUC %.4f too low", res.Segugio.AUC)
	}
	if res.BP.AUC < 0.7 {
		t.Fatalf("LBP AUC %.4f too low for a functioning baseline", res.BP.AUC)
	}
	if res.Iterations == 0 || res.BPTime <= 0 {
		t.Fatal("LBP did not run")
	}
	if res.Iterations == 0 {
		t.Fatal("LBP did not iterate")
	}
	if !strings.Contains(res.String(), "Segugio") {
		t.Fatal("rendering broken")
	}

	// The BP side is a plain batch propagation: rebuild the same split and
	// labeled test-day graph and run belief.Propagate on it directly.
	split := NewSplit(isp1, isp1.Day(170).Graph, isp1.Day(178).Graph, isp1.Commercial, 170, 0.6, 17)
	g := isp1.Labeled(isp1.Day(178), isp1.Commercial, split.Hidden)
	bp, err := belief.Propagate(g, belief.Config{MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(split.Domains))
	for i, name := range split.Domains {
		if d, ok := g.DomainIndex(name); ok {
			scores[i] = bp.DomainBelief[d]
		}
	}
	direct, err := summarizeCurve(scores, split.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if res.BP.AUC != direct.AUC || res.BP.TPRAt[0.001] != direct.TPRAt[0.001] ||
		res.BP.TPRAt[0.01] != direct.TPRAt[0.01] || res.Iterations != bp.Iterations {
		t.Fatalf("RunLBP BP side (AUC %v, TPR@0.1%% %v, TPR@1%% %v, %d iters) != direct Propagate (AUC %v, TPR@0.1%% %v, TPR@1%% %v, %d iters)",
			res.BP.AUC, res.BP.TPRAt[0.001], res.BP.TPRAt[0.01], res.Iterations,
			direct.AUC, direct.TPRAt[0.001], direct.TPRAt[0.01], bp.Iterations)
	}
}

func TestRunClassifiers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunClassifiers(isp1, 170, 178, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.RandomForest.AUC < 0.8 || res.Logistic.AUC < 0.7 {
		t.Fatalf("AUCs too low: rf=%.3f lr=%.3f", res.RandomForest.AUC, res.Logistic.AUC)
	}
	if !strings.Contains(res.String(), "random forest") {
		t.Fatal("rendering broken")
	}
}

func TestRunPruningAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunPruningAblation(isp1, 170, 178, 23)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithPruning.AUC < 0.8 {
		t.Fatalf("pruned AUC = %.3f too low", res.WithPruning.AUC)
	}
	// Unpruned must still work; the claim is efficiency, not accuracy.
	if res.WithoutPruning.AUC < 0.7 {
		t.Fatalf("unpruned AUC = %.3f too low", res.WithoutPruning.AUC)
	}
	if !strings.Contains(res.String(), "Pruning ablation") {
		t.Fatal("rendering broken")
	}
}

func TestRunProberFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunProberFilter(isp1, 170, 178, 27)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RemovedTrain) == 0 {
		t.Fatal("filter found no probers despite prober machines in the population")
	}
	if res.TrueProbers == 0 {
		t.Fatal("none of the removed clients is a true scanner")
	}
	// At this tiny scale the handful of scanners inflates every C&C
	// domain's degree, so filtering them costs visibility; the filter's
	// accuracy-neutrality only holds at experiment scale (where real
	// infections dominate domain degrees). Here we only require the
	// filtered pipeline to keep functioning.
	if res.With.AUC < 0.5 {
		t.Fatalf("filtered pipeline collapsed: AUC %.4f", res.With.AUC)
	}
	t.Logf("AUC without filter %.4f, with filter %.4f", res.Without.AUC, res.With.AUC)
	if !strings.Contains(res.String(), "Prober filter") {
		t.Fatal("rendering broken")
	}
}

func TestRunChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	u, _, _ := sharedFixture(t)
	res, err := RunChurn(u, TestPopulation("CHURNBASE", 44), 170, 178, []float64{0, 0.3}, 29)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(res.Results))
	}
	// Both settings must produce functioning detectors; the directional
	// effect of churn is a scale-level question (tiny fixtures swing
	// either way on coincidence noise).
	for i, r := range res.Results {
		if r.AUC < 0.75 {
			t.Fatalf("churn rate %.2f: AUC %.4f too low", res.Rates[i], r.AUC)
		}
	}
	if !strings.Contains(res.String(), "DHCP churn") {
		t.Fatal("rendering broken")
	}
}

func TestRunCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunCoverage(isp1, 170, 178, []float64{0.75, 0.2}, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(res.Results))
	}
	for _, r := range res.Results {
		if r.AUC < 0.7 {
			t.Fatalf("AUC %.4f too low even at reduced coverage", r.AUC)
		}
	}
	if !strings.Contains(res.String(), "coverage") {
		t.Fatal("rendering broken")
	}
}

func TestRunWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunWindow(isp1, 170, 178, []int{3, 14}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(res.Results))
	}
	for _, r := range res.Results {
		if r.AUC < 0.8 {
			t.Fatalf("AUC %.4f too low", r.AUC)
		}
	}
	if !strings.Contains(res.String(), "window") {
		t.Fatal("rendering broken")
	}
}

func TestRunImportances(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunImportances(isp1, 170)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 11 || len(res.Weights) != 11 {
		t.Fatalf("names/weights = %d/%d, want 11", len(res.Names), len(res.Weights))
	}
	sum := 0.0
	for i, w := range res.Weights {
		if w < 0 || w > 1 {
			t.Fatalf("weight %d = %v out of [0,1]", i, w)
		}
		if i > 0 && w > res.Weights[i-1] {
			t.Fatal("weights not descending")
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum = %v, want 1", sum)
	}
	// The Figure 7 story: F1 should dominate.
	if res.ByGroup["machine behavior (F1)"] < 0.4 {
		t.Fatalf("F1 group importance = %v, want dominant", res.ByGroup["machine behavior (F1)"])
	}
	if !strings.Contains(res.String(), "Feature importances") {
		t.Fatal("rendering broken")
	}
}

func TestRunEvasion(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunEvasion(isp1, 170, 178, 39)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveAbusedSubs == 0 {
		t.Fatal("no abused subdomains observed")
	}
	total := res.WhitelistShadowed + res.Pruned + res.Detected + res.Missed
	if total != res.ActiveAbusedSubs {
		t.Fatalf("accounting broken: %d+%d+%d+%d != %d",
			res.WhitelistShadowed, res.Pruned, res.Detected, res.Missed, res.ActiveAbusedSubs)
	}
	// The evasion must actually shadow something (some zones are
	// whitelisted) AND detection must catch some of the rest.
	if res.WhitelistShadowed == 0 {
		t.Fatal("no whitelist-shadowed subdomains; evasion vector missing")
	}
	if res.Detected == 0 {
		t.Fatal("no abused subdomain detected among the classified ones")
	}
	if !strings.Contains(res.String(), "Evasion study") {
		t.Fatal("rendering broken")
	}
}

func TestRunCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunCrossValidation(isp1, 172, 3, 47)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestMalware < 20 || res.TestBenign < 500 {
		t.Fatalf("pooled test set too small: %d/%d", res.TestMalware, res.TestBenign)
	}
	if res.AUC < 0.85 {
		t.Fatalf("cross-validation AUC = %.4f, want >= 0.85", res.AUC)
	}
	if !(res.TPRLo <= res.TPRAt[0.001]+1e-9 && res.TPRAt[0.001] <= res.TPRHi+0.1) {
		t.Fatalf("point %.3f outside CI [%.3f, %.3f]", res.TPRAt[0.001], res.TPRLo, res.TPRHi)
	}
	if !strings.Contains(res.String(), "cross-validation") {
		t.Fatal("rendering broken")
	}
}
