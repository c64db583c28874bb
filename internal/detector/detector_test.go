package detector_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"segugio/internal/belief"
	"segugio/internal/detector"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
)

// testGraphParts builds the classify fixture shared by the plugin
// tests: blacklisted C&C domains on distinct e2LDs, whitelisted mass,
// and unknown targets queried by the infected machines.
func testGraphParts(day int) (*graph.Builder, graph.LabelSources) {
	b := graph.NewBuilder("det", day, dnsutil.DefaultSuffixList())
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

func labeledSnapshot(b *graph.Builder, src graph.LabelSources) (*graph.Graph, graph.Delta) {
	g := b.Snapshot()
	g.ApplyLabels(src)
	b.MarkLabeled(g)
	return g, g.DeltaOf(g.DirtyDomains())
}

func TestRegistryNamesAndUnknown(t *testing.T) {
	// The forest is the pass's primary, driven through core directly: only
	// auxiliary models register.
	if names := detector.Names(); !slices.Equal(names, []string{"lbp"}) {
		t.Fatalf("registry = %v, want [lbp]", names)
	}
	for _, name := range []string{"no-such-plugin", "forest"} {
		if _, err := detector.New(name, detector.Config{}); err == nil {
			t.Fatalf("New(%q) must error", name)
		}
	}
}

// TestLBPPluginScoresAndModes: the LBP plugin's full pass matches batch
// Propagate, its delta pass runs in residual mode, and targeted scoring
// reports missing names.
func TestLBPPluginScoresAndModes(t *testing.T) {
	b, src := testGraphParts(42)
	g1, delta1 := labeledSnapshot(b, src)

	p, err := detector.New("lbp", detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Threshold() != detector.DefaultLBPThreshold {
		t.Fatalf("Threshold = %v, want %v", p.Threshold(), detector.DefaultLBPThreshold)
	}
	if err := p.Prepare(context.Background(), detector.Pass{Graph: g1, Version: 1, Since: 0, Delta: delta1}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Score(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mode != belief.ModeFull {
		t.Fatalf("first pass: mode=%q, want full", res.Stats.Mode)
	}

	ref, err := belief.Propagate(g1, belief.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for d := 0; d < g1.NumDomains(); d++ {
		if g1.DomainLabel(int32(d)) == graph.LabelUnknown {
			want[g1.DomainName(int32(d))] = ref.DomainBelief[d]
		}
	}
	if len(res.Scores) != len(want) {
		t.Fatalf("scored %d unknowns, want %d", len(res.Scores), len(want))
	}
	for _, sc := range res.Scores {
		if sc.Score != want[sc.Domain] {
			t.Fatalf("%s: plugin belief %v != batch belief %v", sc.Domain, sc.Score, want[sc.Domain])
		}
	}

	// Grow the graph: the next pass must be residual and targeted scores
	// must answer, with unseen names reported missing.
	b.AddQuery("inf03", "unk.gray0.org")
	g2, delta2 := labeledSnapshot(b, src)
	if err := p.Prepare(context.Background(), detector.Pass{Graph: g2, Version: 2, Since: 1, Delta: delta2}); err != nil {
		t.Fatal(err)
	}
	res2, err := p.Score(context.Background(), []string{"unk.gray0.org", "never.seen.example"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Mode != belief.ModeResidual {
		t.Fatalf("delta pass: mode=%q, want residual", res2.Stats.Mode)
	}
	if len(res2.Scores) != 1 || res2.Scores[0].Domain != "unk.gray0.org" {
		t.Fatalf("targeted scores = %+v", res2.Scores)
	}
	if len(res2.Missing) != 1 || res2.Missing[0] != "never.seen.example" {
		t.Fatalf("missing = %v", res2.Missing)
	}
}

func TestFuse(t *testing.T) {
	f := detector.Fuse(map[string]detector.Verdict{
		"forest": {Score: 0.3, Detected: false},
		"lbp":    {Score: 0.95, Detected: true},
	})
	if f.Score != 0.95 || !f.Detected {
		t.Fatalf("fused = %+v", f)
	}
	if f := detector.Fuse(nil); f.Score != 0 || f.Detected {
		t.Fatalf("empty fuse = %+v", f)
	}
}

func TestLoadTuning(t *testing.T) {
	tun, err := detector.LoadTuning(strings.NewReader(
		`{"lbp": {"epsilon": 0.05, "threshold": 0.8}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Absent knobs stay zero, which every consumer reads as "default".
	want := detector.Tuning{LBP: belief.Config{Epsilon: 0.05}, LBPThreshold: 0.8}
	if tun != want {
		t.Fatalf("tuning = %+v, want %+v", tun, want)
	}
	if _, err := detector.LoadTuning(strings.NewReader(`{"nope": 1}`)); err == nil {
		t.Fatal("unknown fields must error")
	}
	if _, err := detector.LoadTuning(strings.NewReader(`{`)); err == nil {
		t.Fatal("truncated JSON must error")
	}
}

// TestLBPPassGraphImmutability runs LBP passes concurrently with
// continued streaming into the builder the snapshots came from. Under
// -race this pins that an LBP pass neither mutates the snapshot it
// propagates over nor trips on ingest appending behind it; the belief
// values must be identical to a quiet re-propagation of the same
// snapshot.
func TestLBPPassGraphImmutability(t *testing.T) {
	b, src := testGraphParts(7)
	g1, delta1 := labeledSnapshot(b, src)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 5000; i++ {
			b.AddQuery(fmt.Sprintf("late%02d", i%9), fmt.Sprintf("stream%d.burst.net", i%50))
		}
	}()

	p, err := detector.New("lbp", detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Prepare(context.Background(), detector.Pass{Graph: g1, Version: 1, Delta: delta1}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Score(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keep propagating cold passes over the same snapshot until the
	// stream drains, so LBP reads and ingest writes genuinely overlap.
	for streaming := true; streaming; {
		select {
		case <-done:
			streaming = false
		default:
			fresh, err := detector.New("lbp", detector.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Prepare(context.Background(), detector.Pass{Graph: g1, Version: 1, Delta: delta1}); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Score(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()

	// The stream kept appending the whole time; the snapshot's beliefs
	// must match a propagation computed with the world quiet.
	ref, err := belief.Propagate(g1, belief.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range res.Scores {
		d, ok := g1.DomainIndex(sc.Domain)
		if !ok {
			t.Fatalf("%s vanished from the snapshot", sc.Domain)
		}
		if sc.Score != ref.DomainBelief[d] {
			t.Fatalf("%s: belief %v != quiet-world belief %v", sc.Domain, sc.Score, ref.DomainBelief[d])
		}
	}

	// And the pass must not have perturbed the snapshot itself.
	g1b := b.Snapshot()
	if g1b.NumDomains() <= g1.NumDomains() {
		t.Fatal("stream produced no growth; immutability was not exercised")
	}
	if !g1.Labeled() {
		t.Fatal("snapshot lost its labels")
	}
}
