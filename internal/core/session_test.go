package core

import (
	"fmt"
	"sync"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/ml"
)

// sessionGraphParts builds a small streaming fixture for session tests:
// 10 blacklisted C&C domains on distinct e2LDs (so default R4 never
// fires), 20 whitelisted domains, and 4 unknown targets queried by the
// infected machines. The builder is returned so tests can keep streaming
// into it and take incremental snapshots.
func sessionGraphParts(day int) (*graph.Builder, graph.LabelSources) {
	b := graph.NewBuilder("sess", day, dnsutil.DefaultSuffixList())
	bl := intel.NewBlacklist()
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("c2.evil%d.net", i)
		bl.Add(intel.BlacklistEntry{Domain: name, Family: "fam", FirstListed: 0})
		for m := 0; m < 6; m++ {
			b.AddQuery(fmt.Sprintf("inf%02d", (i+m)%12), name)
		}
		b.AddResolution(name, dnsutil.IPv4(0x0a000000+uint32(i)))
	}
	var whitelisted []string
	for i := 0; i < 20; i++ {
		e2ld := fmt.Sprintf("good%d.com", i)
		whitelisted = append(whitelisted, e2ld)
		name := "www." + e2ld
		for m := 0; m < 8; m++ {
			b.AddQuery(fmt.Sprintf("clean%02d", (i+m)%25), name)
		}
		b.AddResolution(name, dnsutil.IPv4(0x0b000000+uint32(i)))
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("unk.gray%d.org", i)
		for m := 0; m < 5; m++ {
			b.AddQuery(fmt.Sprintf("inf%02d", (i+m)%12), name)
		}
		b.AddResolution(name, dnsutil.IPv4(0x0c000000+uint32(i)))
	}
	return b, graph.LabelSources{
		Blacklist: bl,
		Whitelist: intel.NewWhitelist(whitelisted),
		AsOf:      day,
	}
}

// sessionDetector trains a deterministic logistic-regression detector
// with the full prune pipeline enabled on the given labeled graph.
func sessionDetector(t *testing.T, g *graph.Graph) *Detector {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := Train(cfg, TrainInput{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func sameDetections(t *testing.T, a, b []Detection) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("detection counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Domain != b[i].Domain || a[i].Score != b[i].Score {
			t.Fatalf("detection %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSessionMemoizesPreparation: a repeated Classify on the same input
// reuses the memoized prune pipeline (no new full-graph scan), reports
// PrunedCached, and returns byte-identical detections — which also match
// a sessionless Detector.Classify.
func TestSessionMemoizesPreparation(t *testing.T) {
	b, src := sessionGraphParts(42)
	g := b.Snapshot()
	g.ApplyLabels(src)
	det := sessionDetector(t, g)
	sess := det.NewSession()
	in := ClassifyInput{Graph: g}

	ref, _, err := det.Classify(in)
	if err != nil {
		t.Fatal(err)
	}
	dets1, rep1, err := sess.Classify(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.PrunedCached {
		t.Fatal("first session pass cannot be served from the memo")
	}
	sameDetections(t, ref, dets1)

	scans := graph.FullGraphScans()
	dets2, rep2, err := sess.Classify(in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.PrunedCached {
		t.Fatal("second pass on the same input must reuse the preparation")
	}
	if got := graph.FullGraphScans(); got != scans {
		t.Fatalf("memoized pass performed %d full-graph scans", got-scans)
	}
	sameDetections(t, dets1, dets2)
}

// TestSessionDeltaMatchesFullOnSameSnapshot: scoring explicit targets
// (a by-name lookup) against the snapshot the session prepared must
// reproduce the full pass's scores exactly.
func TestSessionDeltaMatchesFullOnSameSnapshot(t *testing.T) {
	b, src := sessionGraphParts(42)
	g := b.Snapshot()
	g.ApplyLabels(src)
	det := sessionDetector(t, g)
	sess := det.NewSession()

	full, _, err := sess.Classify(ClassifyInput{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]float64, len(full))
	var targets []string
	for _, d := range full {
		byName[d.Domain] = d.Score
		targets = append(targets, d.Domain)
	}

	dets, rep, err := sess.Classify(ClassifyInput{Graph: g, Domains: targets})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PrunedCached {
		t.Fatal("same-snapshot targets must be served from the memo")
	}
	if len(dets) != len(targets) {
		t.Fatalf("scored %d of %d targets (missing: %v)", len(dets), len(targets), rep.Missing)
	}
	for _, d := range dets {
		if want, ok := byName[d.Domain]; !ok || d.Score != want {
			t.Fatalf("%s: target score %v != full score %v", d.Domain, d.Score, want)
		}
	}
}

// TestSessionLaterSnapshotIsCold: a session holds no decision of an
// earlier snapshot past it. Each later snapshot of the same builder is
// prepared afresh (one full-graph scan), and its scores equal a fresh
// session's classify of that snapshot exactly: served equals cold.
func TestSessionLaterSnapshotIsCold(t *testing.T) {
	b, src := sessionGraphParts(42)
	g1 := b.Snapshot()
	g1.ApplyLabels(src)
	det := sessionDetector(t, g1)
	sess := det.NewSession()
	if _, _, err := sess.Classify(ClassifyInput{Graph: g1}); err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 3; pass++ {
		b.AddQuery(fmt.Sprintf("inf%02d", 5+pass), "unk.gray0.org")
		b.AddQuery(fmt.Sprintf("new%02d", pass), fmt.Sprintf("fresh%d.gray.org", pass))
		g2 := b.Snapshot()
		g2.ApplyLabels(src)

		scans := graph.FullGraphScans()
		dets, rep, err := sess.Classify(ClassifyInput{Graph: g2})
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.FullGraphScans(); got != scans+1 || rep.PrunedCached {
			t.Fatalf("pass %d: %d full-graph scans (cached %v), want one fresh preparation", pass, got-scans, rep.PrunedCached)
		}
		cold, _, err := det.NewSession().Classify(ClassifyInput{Graph: g2})
		if err != nil {
			t.Fatal(err)
		}
		if len(dets) != len(cold) {
			t.Fatalf("pass %d: %d detections, cold %d", pass, len(dets), len(cold))
		}
		for i := range dets {
			if dets[i] != cold[i] {
				t.Fatalf("pass %d: detection %d is %+v, cold %+v", pass, i, dets[i], cold[i])
			}
		}
	}
}

// TestClassifyMatchesSerialReference: the parallel flat-matrix scoring
// path must be byte-identical to a serial per-domain Vector + Score loop
// over the same pruned graph.
func TestClassifyMatchesSerialReference(t *testing.T) {
	b, src := sessionGraphParts(42)
	g := b.Snapshot()
	g.ApplyLabels(src)
	det := sessionDetector(t, g)

	dets, rep, err := det.Classify(ClassifyInput{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("nothing classified")
	}
	ex, err := features.NewExtractor(rep.PrunedGraph, nil, nil, det.cfg.ActivityWindow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dets {
		di, ok := rep.PrunedGraph.DomainIndex(d.Domain)
		if !ok {
			t.Fatalf("%s not in pruned graph", d.Domain)
		}
		if want := det.model.Score(ex.Vector(di)); d.Score != want {
			t.Fatalf("%s: parallel score %v != serial score %v", d.Domain, d.Score, want)
		}
	}
}

// TestSessionConcurrentPasses: concurrent full and delta passes sharing
// one session must never observe a partially built preparation. Run
// under -race; the assertions also pin determinism of the full pass.
func TestSessionConcurrentPasses(t *testing.T) {
	b, src := sessionGraphParts(42)
	g1 := b.Snapshot()
	g1.ApplyLabels(src)
	b.AddQuery("inf05", "unk.gray0.org")
	g2 := b.Snapshot()
	g2.ApplyLabels(src)
	targets := []string{"unk.gray0.org", "unk.gray1.org"}
	det := sessionDetector(t, g1)
	sess := det.NewSession()

	ref, _, err := det.Classify(ClassifyInput{Graph: g1})
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w%2 == 0 {
					dets, _, err := sess.Classify(ClassifyInput{Graph: g1})
					if err != nil {
						errs <- err
						return
					}
					if len(dets) != len(ref) {
						errs <- fmt.Errorf("full pass returned %d detections, want %d", len(dets), len(ref))
						return
					}
					for j := range dets {
						if dets[j] != ref[j] {
							errs <- fmt.Errorf("full pass diverged at %d: %+v vs %+v", j, dets[j], ref[j])
							return
						}
					}
				} else {
					dets, rep, err := sess.Classify(ClassifyInput{Graph: g2, Domains: targets})
					if err != nil {
						errs <- err
						return
					}
					if len(dets)+len(rep.Missing) != len(targets) {
						errs <- fmt.Errorf("targets pass: %d scored + %d missing != %d targets",
							len(dets), len(rep.Missing), len(targets))
						return
					}
					for _, d := range dets {
						if d.Score < 0 || d.Score > 1 {
							errs <- fmt.Errorf("target score %v out of [0,1]", d.Score)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDetectionIDs: a Detection's ID is the domain's node id in the graph
// the caller passed in — not in the pruned graph the score was measured on
// — whichever path scored it: a full pass over the materialized pruned
// graph, explicit targets on the same snapshot, explicit targets on a
// later snapshot, or a detector with no prune pipeline at all.
func TestDetectionIDs(t *testing.T) {
	b, src := sessionGraphParts(42)
	// A single-machine domain between the targets: R3 prunes it, so the
	// pruned graph's ids run behind the snapshot's.
	b.AddQuery("inf00", "lonely.gray9.org")
	for i := 0; i < 4; i++ {
		b.AddQuery(fmt.Sprintf("clean%02d", 2*i), fmt.Sprintf("late.gray%d.org", i))
		b.AddQuery(fmt.Sprintf("clean%02d", 2*i+1), fmt.Sprintf("late.gray%d.org", i))
	}
	g1 := b.Snapshot()
	g1.ApplyLabels(src)
	requireIDs := func(when string, g *graph.Graph, dets []Detection, want int) {
		t.Helper()
		if len(dets) < want {
			t.Fatalf("%s: %d detections, want at least %d", when, len(dets), want)
		}
		for _, d := range dets {
			if id, ok := g.DomainIndex(d.Domain); !ok || id != d.ID {
				t.Fatalf("%s: %s has ID %d, the snapshot says %d (present=%v)", when, d.Domain, d.ID, id, ok)
			}
		}
	}

	det := sessionDetector(t, g1)
	sess := det.NewSession()
	full, rep, err := sess.Classify(ClassifyInput{Graph: g1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedGraph.NumDomains() == g1.NumDomains() {
		t.Fatal("fixture: nothing was pruned, ids would match by accident")
	}
	requireIDs("full pass", g1, full, 5)

	targets := []string{full[len(full)-1].Domain, full[0].Domain, "lonely.gray9.org"}
	same, _, err := sess.Classify(ClassifyInput{Graph: g1, Domains: targets})
	if err != nil {
		t.Fatal(err)
	}
	requireIDs("explicit targets, same snapshot", g1, same, 2)

	b.AddQuery("clean10", "young.gray8.org")
	b.AddQuery("clean11", "young.gray8.org")
	g2 := b.Snapshot()
	g2.ApplyLabels(src)
	later, rep, err := sess.Classify(ClassifyInput{Graph: g2, Domains: append(targets, "young.gray8.org")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedCached {
		t.Fatal("fixture: the later snapshot was served from the earlier one's preparation")
	}
	requireIDs("explicit targets, later snapshot", g2, later, 2)

	cfg := DefaultConfig()
	cfg.DisablePruning = true
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	unpruned, _, err := Train(cfg, TrainInput{Graph: g1})
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := unpruned.Classify(ClassifyInput{Graph: g2})
	if err != nil {
		t.Fatal(err)
	}
	requireIDs("no prune pipeline", g2, all, 10)
}
