package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/ml"
)

// TestPlanClassifyMatchesMaterialized pins core's classify path, which
// measures features on the snapshot through a prune plan, to an oracle
// that shares none of that code: graph.FilterProbers and graph.Prune
// build the pruned graph, features.NewExtractor measures it, and
// ml.ScoreAll scores the rows with the detector's own model. On random
// labeled graphs, with the prober filter on and off and pruning on and
// off:
//   - Classify's rows equal the oracle's, scores bit for bit, with each
//     row's ID naming the same domain in the snapshot;
//   - a by-name Classify of every snapshot name, plus one never seen,
//     scores the names the pruned graph holds and reports the rest
//     Missing, in input order;
//   - TrainingSet on the plan extractor equals TrainingSet on the pruned
//     graph, rows, labels and names.
func TestPlanClassifyMatchesMaterialized(t *testing.T) {
	prober := &graph.ProberConfig{MinMalwareDomains: 2, MinMalwareFraction: 0.25}
	prune := graph.PruneConfig{MaxInactiveDegree: 2, ProxyPercentile: 95, MinDomainMachines: 2, MaxE2LDMachineFraction: 0.45}
	for _, tc := range []struct {
		name    string
		prober  *graph.ProberConfig
		disable bool
	}{
		{"prune", nil, false},
		{"probers+prune", prober, false},
		{"probers", prober, true},
		{"neither", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Prune, cfg.ProberFilter, cfg.DisablePruning = prune, tc.prober, tc.disable
			var model ml.Model
			cfg.NewModel = func(int, int) ml.Model {
				model = ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
				return model
			}
			det := trainOnRandomGraph(t, cfg)
			var seen graph.PruneStats
			probers := 0
			for seed := int64(0); seed < 60; seed++ {
				// A third of the graphs name every domain its own e2LD; the
				// rest share 6 to 10 zones, where R4's distinct-machine count
				// sits near its threshold.
				zones := 0
				if seed%3 > 0 {
					zones = 6 + int(seed%5)
				}
				g := graph.RandomGraph(seed, zones)
				act := randomActivity(g, seed)
				oracle := oracleGraph(t, g, tc.prober, prune, tc.disable)
				ex, err := features.NewExtractor(oracle, act, nil, cfg.ActivityWindow)
				if err != nil {
					t.Fatal(err)
				}

				dets, rep, err := det.Classify(core.ClassifyInput{Graph: g, Activity: act})
				if err != nil {
					t.Fatal(err)
				}
				seen.DroppedR1 += rep.Prune.DroppedR1
				seen.DroppedR2 += rep.Prune.DroppedR2
				seen.DroppedR3 += rep.Prune.DroppedR3
				seen.DroppedR4 += rep.Prune.DroppedR4
				probers += len(rep.ProbersRemoved)
				targets := oracle.DomainsWithLabel(graph.LabelUnknown)
				want := scoreRows(oracle, targets, ml.ScoreAll(model, features.VectorsOf(ex, targets)))
				if got := detRows(t, g, dets); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Classify rows\n%v\nwant the oracle's\n%v", seed, got, want)
				}

				names := []string{"never.seen.example"}
				for d := int32(0); d < int32(g.NumDomains()); d++ {
					names = append(names, g.DomainName(d))
				}
				dets, rep, err = det.Classify(core.ClassifyInput{Graph: g, Activity: act, Domains: names})
				if err != nil {
					t.Fatal(err)
				}
				var kept []int32
				var missing []string
				for _, name := range names {
					if d, ok := oracle.DomainIndex(name); ok {
						kept = append(kept, d)
					} else {
						missing = append(missing, name)
					}
				}
				want = scoreRows(oracle, kept, ml.ScoreAll(model, features.VectorsOf(ex, kept)))
				if got := detRows(t, g, dets); !reflect.DeepEqual(got, want) || !slices.Equal(rep.Missing, missing) {
					t.Fatalf("seed %d: by-name rows %v missing %v, want %v missing %v", seed, got, rep.Missing, want, missing)
				}

				var planEx *features.Extractor
				if tc.prober != nil || !tc.disable {
					plan, err := graph.NewPrunePlan(g, tc.prober, prune, tc.disable)
					if err != nil {
						t.Fatal(err)
					}
					planEx, err = features.NewPlanExtractor(plan, act, nil, cfg.ActivityWindow)
					if err != nil {
						t.Fatal(err)
					}
				} else if planEx, err = features.NewExtractor(g, act, nil, cfg.ActivityWindow); err != nil {
					t.Fatal(err)
				}
				if got, want := features.TrainingSet(planEx, nil), features.TrainingSet(ex, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: plan TrainingSet %+v, want the pruned graph's %+v", seed, got, want)
				}
			}
			if !tc.disable && (seen.DroppedR1 == 0 || seen.DroppedR2 == 0 || seen.DroppedR3 == 0 || seen.DroppedR4 == 0) {
				t.Fatalf("fixture: some rule never fired: %+v", seen)
			}
			if tc.prober != nil && probers == 0 {
				t.Fatal("fixture: the prober filter never fired")
			}
		})
	}
}

// trainOnRandomGraph trains cfg's detector on the first random graph
// that yields both classes.
func trainOnRandomGraph(t *testing.T, cfg core.Config) *core.Detector {
	t.Helper()
	for seed := int64(1000); seed < 1100; seed++ {
		g := graph.RandomGraph(seed, 3)
		det, rep, err := core.Train(cfg, core.TrainInput{Graph: g, Activity: randomActivity(g, seed)})
		if err == nil && rep.TrainBenign > 0 && rep.TrainMalware > 0 {
			return det
		}
	}
	t.Fatal("no random graph trains a detector")
	return nil
}

// oracleGraph is the pruned graph built without a plan: FilterProbers,
// then Prune, each only when configured.
func oracleGraph(t *testing.T, g *graph.Graph, prober *graph.ProberConfig, cfg graph.PruneConfig, disable bool) *graph.Graph {
	t.Helper()
	var err error
	if prober != nil {
		if g, _, err = graph.FilterProbers(g, *prober); err != nil {
			t.Fatal(err)
		}
	}
	if !disable {
		if g, _, err = graph.Prune(g, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// randomActivity marks a random half of g's domains and their e2LDs
// active on random days of the look-back, so F2 is not all zeros.
func randomActivity(g *graph.Graph, seed int64) *activity.Log {
	rng := rand.New(rand.NewSource(seed))
	log := activity.NewLog()
	for d := int32(0); d < int32(g.NumDomains()); d++ {
		for k := rng.Intn(4); k > 0; k-- {
			day := g.Day() - rng.Intn(14)
			log.MarkDomain(day, g.DomainName(d))
			log.MarkE2LD(day, g.DomainE2LD(d))
		}
	}
	return log
}

// row is one scored domain, by name, with its score's bits.
type row struct {
	Domain string
	Score  uint64
}

func (r row) String() string { return fmt.Sprintf("%s:%x", r.Domain, r.Score) }

// scoreRows pairs nodes of g with their scores, sorted by name.
func scoreRows(g *graph.Graph, nodes []int32, scores []float64) []row {
	out := make([]row, len(nodes))
	for i, d := range nodes {
		out[i] = row{g.DomainName(d), math.Float64bits(scores[i])}
	}
	slices.SortFunc(out, func(a, b row) int { return strings.Compare(a.Domain, b.Domain) })
	return out
}

// detRows is scoreRows for detections, checking that each ID names its
// domain in the snapshot g.
func detRows(t *testing.T, g *graph.Graph, dets []core.Detection) []row {
	t.Helper()
	out := make([]row, len(dets))
	for i, det := range dets {
		if g.DomainName(det.ID) != det.Domain {
			t.Fatalf("detection %s has ID %d, which is %s", det.Domain, det.ID, g.DomainName(det.ID))
		}
		out[i] = row{det.Domain, math.Float64bits(det.Score)}
	}
	slices.SortFunc(out, func(a, b row) int { return strings.Compare(a.Domain, b.Domain) })
	return out
}
