package experiments

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"segugio/internal/core"
	"segugio/internal/graph"
	"segugio/internal/notos"
)

type scoredDiag struct {
	name  string
	score float64
	ok    bool
}

func countRejected(s []scoredDiag) int {
	n := 0
	for _, x := range s {
		if !x.ok {
			n++
		}
	}
	return n
}

// TestDiagNotos is a manual diagnostic (SEGUGIO_DIAG=1 -run TestDiagNotos -v).
func TestDiagNotos(t *testing.T) {
	if os.Getenv("SEGUGIO_DIAG") == "" {
		t.Skip("set SEGUGIO_DIAG=1: manual diagnostic")
	}
	_, n, _ := sharedFixture(t)
	trainDay, testDay := 170, 185
	notosBL := n.Commercial.Union(n.Public)
	nc, err := notos.Train(notos.Config{Suffixes: n.Suffixes}, n.DB, trainDay, notosBL, n.Top100K)
	if err != nil {
		t.Fatal(err)
	}
	dd2 := n.Day(testDay)

	// New C&C.
	var mal, ben []scoredDiag
	for _, d := range n.Commercial.Domains() {
		e, _ := n.Commercial.Entry(d)
		if e.FirstListed <= trainDay || e.FirstListed > testDay {
			continue
		}
		if _, ok := dd2.Graph.DomainIndex(d); !ok {
			continue
		}
		s, ok := nc.Score(d, testDay)
		mal = append(mal, scoredDiag{d, s, ok})
	}
	bigMinusTop := n.Whitelist.Clone()
	bigMinusTop.Remove(n.Top100K.E2LDs())
	for d := int32(0); d < int32(dd2.Graph.NumDomains()); d++ {
		name := dd2.Graph.DomainName(d)
		if bigMinusTop.ContainsE2LD(dd2.Graph.DomainE2LD(d)) {
			s, ok := nc.Score(name, testDay)
			ben = append(ben, scoredDiag{name, s, ok})
		}
	}
	sort.Slice(mal, func(i, j int) bool { return mal[i].score > mal[j].score })
	sort.Slice(ben, func(i, j int) bool { return ben[i].score > ben[j].score })
	fmt.Printf("new C&C: %d (rejected %d), benign: %d\n", len(mal), countRejected(mal), len(ben))
	fmt.Println("top benign scores:")
	for i := 0; i < 10 && i < len(ben); i++ {
		fmt.Printf("  %-30s %.3f ok=%v\n", ben[i].name, ben[i].score, ben[i].ok)
	}
	fmt.Println("malware scores (scored ones):")
	for i := 0; i < len(mal); i++ {
		if mal[i].ok {
			fmt.Printf("  %-30s %.3f\n", mal[i].name, mal[i].score)
		}
	}
	rejBen := countRejected(ben)
	fmt.Printf("benign rejected: %d / %d\n", rejBen, len(ben))
}

// TestDiagCross inspects the top-scoring benign test domains of a plain
// cross-day run (run with -run TestDiagCross -v).
func TestDiagCross(t *testing.T) {
	if os.Getenv("SEGUGIO_DIAG") == "" {
		t.Skip("set SEGUGIO_DIAG=1: manual diagnostic")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunCross(isp1, 170, isp1, 178, CrossOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("AUC %.4f TPR@0.1%%=%.3f TPR@1%%=%.3f malware=%d benign=%d\n",
		res.AUC, res.TPRAt[0.001], res.TPRAt[0.01], res.TestMalware, res.TestBenign)

	type row struct {
		name  string
		score float64
		label int
	}
	var rows []row
	for i := range res.Domains {
		rows = append(rows, row{res.Domains[i], res.Scores[i], res.Labels[i]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].score > rows[j].score })
	fmt.Println("top 30 scored test domains:")
	g := res.PrunedTestGraph
	ex, _ := featuresExtractor(isp1, res.TestDay, g)
	for i := 0; i < 30 && i < len(rows); i++ {
		r := rows[i]
		feat := ""
		if d, ok := g.DomainIndex(r.name); ok {
			v := ex.Vector(d)
			feat = fmt.Sprintf("m=%.2f u=%.2f t=%.0f actD=%.0f strk=%.0f e2actD=%.0f malIP=%.2f malPfx=%.2f unkIP=%.0f unkPfx=%.0f",
				v[0], v[1], v[2], v[3], v[4], v[5], v[7], v[8], v[9], v[10])
		}
		fmt.Printf("  L=%d %.3f %-28s %s\n", r.label, r.score, r.name, feat)
	}
}

// TestDiagFig12Segugio inspects Segugio's scores inside the fig12 setup.
func TestDiagFig12Segugio(t *testing.T) {
	if os.Getenv("SEGUGIO_DIAG") == "" {
		t.Skip("set SEGUGIO_DIAG=1: manual diagnostic")
	}
	_, n, _ := sharedFixture(t)
	res, err := RunFig12([]*Network{n}, 170, 185, 13)
	if err != nil {
		t.Fatal(err)
	}
	isp := res.PerISP[0]
	fmt.Printf("Segugio AUC %.4f TPR@0.7%%=%.3f TPR@3%%=%.3f; newC2=%d benign=%d\n",
		isp.Segugio.AUC, isp.Segugio.TPRAt[0.007], isp.Segugio.TPRAt[0.03], isp.NewC2, isp.TestBenign)
	for _, p := range isp.Segugio.Curve {
		if p.FPR <= 0.03 {
			fmt.Printf("  th=%.4f fpr=%.4f tpr=%.3f\n", p.Threshold, p.FPR, p.TPR)
		}
	}
}

// TestDiagSeed17 inspects Segugio's top benign under the LBP test's split.
func TestDiagSeed17(t *testing.T) {
	if os.Getenv("SEGUGIO_DIAG") == "" {
		t.Skip("set SEGUGIO_DIAG=1: manual diagnostic")
	}
	_, isp1, _ := sharedFixture(t)
	res, err := RunCross(isp1, 170, isp1, 178, CrossOptions{TestFraction: 0.6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("TPR@0.1%%=%.3f benign=%d malware=%d\n", res.TPRAt[0.001], res.TestBenign, res.TestMalware)
	type row struct {
		name  string
		score float64
	}
	var benign []row
	for i := range res.Domains {
		if res.Labels[i] == 0 {
			benign = append(benign, row{res.Domains[i], res.Scores[i]})
		}
	}
	sort.Slice(benign, func(i, j int) bool { return benign[i].score > benign[j].score })
	g := res.PrunedTestGraph
	ex, _ := featuresExtractor(isp1, res.TestDay, g)
	for i := 0; i < 8 && i < len(benign); i++ {
		r := benign[i]
		feat := ""
		if d, ok := g.DomainIndex(r.name); ok {
			v := ex.Vector(d)
			feat = fmt.Sprintf("m=%.2f u=%.2f t=%.0f actD=%.0f strk=%.0f e2actD=%.0f e2strk=%.0f malIP=%.2f malPfx=%.2f",
				v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8])
		}
		fmt.Printf("  %.4f %-30s %s\n", r.score, r.name, feat)
	}
}

// TestDiagScale probes cross-day + LBP at experiment scale. Gated behind
// SEGUGIO_SCALE=1 because it takes minutes.
func TestDiagScale(t *testing.T) {
	if os.Getenv("SEGUGIO_SCALE") == "" {
		t.Skip("set SEGUGIO_SCALE=1")
	}
	u, err := NewUniverse(UniverseParams(), UniverseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	isp1 := u.Network(ISP1Population())
	res, err := RunCross(isp1, 170, isp1, 183, CrossOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("SCALE cross-day: AUC %.4f TPR@0.1%%=%.3f TPR@0.5%%=%.3f TPR@1%%=%.3f mal=%d ben=%d missMal=%d\n",
		res.AUC, res.TPRAt[0.001], res.TPRAt[0.005], res.TPRAt[0.01],
		res.TestMalware, res.TestBenign, res.MissingTestMalware)
	lbp, err := RunLBP(isp1, 170, 183, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("SCALE lbp: seg AUC %.4f TPR@0.1%%=%.3f (%v) vs bp AUC %.4f TPR@0.1%%=%.3f (%v)\n",
		lbp.Segugio.AUC, lbp.Segugio.TPRAt[0.001], lbp.SegugioTime,
		lbp.BP.AUC, lbp.BP.TPRAt[0.001], lbp.BPTime)
}

// TestDiagAbusedSubs traces where abused free-reg subdomains end up in a
// cross-day run (SEGUGIO_DIAG=1).
func TestDiagAbusedSubs(t *testing.T) {
	if os.Getenv("SEGUGIO_DIAG") == "" {
		t.Skip("set SEGUGIO_DIAG=1: manual diagnostic")
	}
	_, isp1, _ := sharedFixture(t)
	trainDay, testDay := 170, 178
	dd1, dd2 := isp1.Day(trainDay), isp1.Day(testDay)
	res, err := RunCross(isp1, trainDay, isp1, testDay, CrossOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for i, d := range res.Domains {
		scores[d] = res.Scores[i]
	}
	inSplit := map[string]bool{}
	for _, d := range res.Domains {
		inSplit[d] = true
	}
	for _, id := range isp1.Cat.AllAbusedSubdomains() {
		name := isp1.Cat.Name(id)
		_, in1 := dd1.Graph.DomainIndex(name)
		_, in2 := dd2.Graph.DomainIndex(name)
		if !in1 && !in2 {
			continue
		}
		e2ld := isp1.Suffixes.E2LD(name)
		wl := isp1.Whitelist.ContainsE2LD(e2ld)
		deg := -1
		if d2, ok := res.PrunedTestGraph.DomainIndex(name); ok {
			deg = res.PrunedTestGraph.DomainDegree(d2)
		}
		fmt.Printf("%-28s in1=%v in2=%v wl=%v split=%v score=%.3f prunedDeg=%d\n",
			name, in1, in2, wl, inSplit[name], scores[name], deg)
	}
}

// TestDiagFig12Scale inspects fig12's per-ISP Segugio curves at scale
// (SEGUGIO_SCALE=1).
func TestDiagFig12Scale(t *testing.T) {
	if os.Getenv("SEGUGIO_SCALE") == "" {
		t.Skip("set SEGUGIO_SCALE=1")
	}
	u, err := NewUniverse(UniverseParams(), UniverseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	isp2 := u.Network(ISP2Population())
	res, err := RunFig12([]*Network{isp2}, 170, 195, 14)
	if err != nil {
		t.Fatal(err)
	}
	isp := res.PerISP[0]
	fmt.Printf("ISP2 segugio AUC %.4f TPR@0.7%%=%.3f; notos best %.3f\n",
		isp.Segugio.AUC, isp.Segugio.TPRAt[0.007], isp.Notos.BestTPR)
	for _, p := range isp.Segugio.Curve {
		if p.FPR <= 0.02 {
			fmt.Printf("  th=%.4f fpr=%.5f tpr=%.3f\n", p.Threshold, p.FPR, p.TPR)
		}
	}
}

// TestDiagFig12Features replicates fig12's Segugio path on one network
// and prints low-scoring new-C&C feature vectors (SEGUGIO_SCALE=1).
func TestDiagFig12Features(t *testing.T) {
	if os.Getenv("SEGUGIO_SCALE") == "" {
		t.Skip("set SEGUGIO_SCALE=1")
	}
	u, err := NewUniverse(UniverseParams(), UniverseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := u.Network(ISP2Population())
	trainDay, testDay := 170, 195

	dd2 := n.Day(testDay)
	var newC2 []string
	for _, d := range n.Commercial.Domains() {
		e, _ := n.Commercial.Entry(d)
		if e.FirstListed <= trainDay || e.FirstListed > testDay {
			continue
		}
		if _, ok := dd2.Graph.DomainIndex(d); ok {
			newC2 = append(newC2, d)
		}
	}
	hidden := map[string]struct{}{}
	for _, d := range newC2 {
		hidden[d] = struct{}{}
	}
	dd1 := n.Day(trainDay)
	dd1.Graph.ApplyLabels(graph.LabelSources{Blacklist: n.Commercial, Whitelist: n.Top100K, AsOf: trainDay, Hidden: hidden})
	det, trep, err := core.Train(core.DefaultConfig(), core.TrainInput{
		Graph: dd1.Graph, Activity: dd1.Activity, Abuse: n.Abuse(trainDay, n.Commercial), Exclude: hidden,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("train: benign=%d malware=%d\n", trep.TrainBenign, trep.TrainMalware)
	dd2.Graph.ApplyLabels(graph.LabelSources{Blacklist: n.Commercial, Whitelist: n.Top100K, AsOf: trainDay, Hidden: hidden})
	dets, crep, err := det.Classify(core.ClassifyInput{
		Graph: dd2.Graph, Activity: dd2.Activity, Abuse: n.Abuse(testDay, n.Commercial), Domains: newC2,
	})
	if err != nil {
		t.Fatal(err)
	}
	score := map[string]float64{}
	for _, d := range dets {
		score[d.Domain] = d.Score
	}
	g := crep.PrunedGraph()
	ex, err := featuresExtractor(n, testDay, g)
	if err != nil {
		t.Fatal(err)
	}
	low, miss := 0, 0
	for _, name := range newC2 {
		s, ok := score[name]
		if !ok {
			miss++
			continue
		}
		if s < 0.5 {
			low++
			if low <= 12 {
				d, okIdx := g.DomainIndex(name)
				if !okIdx {
					fmt.Printf("  %-26s s=%.3f PRUNED\n", name, s)
					continue
				}
				v := ex.Vector(d)
				fmt.Printf("  %-26s s=%.3f m=%.2f u=%.2f t=%.0f actD=%.0f strk=%.0f e2=%.0f malIP=%.2f malPfx=%.2f\n",
					name, s, v[0], v[1], v[2], v[3], v[4], v[5], v[7], v[8])
			}
		}
	}
	fmt.Printf("newC2=%d low(<0.5)=%d missing=%d\n", len(newC2), low, miss)
}
