package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/intel"
)

// buildPruneGraph creates a graph exercising every pruning rule:
//   - "idle" queries 2 domains (R1 target).
//   - "idlebot" queries only 2 malware domains (R1 exception).
//   - "proxy" queries every domain (R2 target at a low percentile).
//   - "lonely.com" is queried by one machine (R3 target).
//   - "c2.solo.com" is malware queried by one machine (R3 exception).
//   - "popular.com" is queried by nearly all machines (R4 target).
func buildPruneGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("P", 10, dnsutil.DefaultSuffixList())

	normals := make([]string, 30)
	for i := range normals {
		normals[i] = fmt.Sprintf("m%02d", i)
		// Enough breadth to survive R1, spread thin enough that no site
		// e2LD approaches the R4 popularity threshold.
		for j := 0; j < 8; j++ {
			b.AddQuery(normals[i], fmt.Sprintf("site%d.com", (i*3+j)%40))
		}
		b.AddQuery(normals[i], "www.popular.com")
	}
	b.AddQuery("m00", "lonely.com")
	b.AddQuery("m01", "c2.solo.com")

	b.AddQuery("idle", "site0.com")
	b.AddQuery("idle", "site1.com")

	b.AddQuery("idlebot", "c2.bot.com")
	b.AddQuery("idlebot", "c2.bot2.com")

	for j := 0; j < 12; j++ {
		b.AddQuery("proxy", fmt.Sprintf("site%d.com", j))
	}
	for j := 0; j < 300; j++ {
		b.AddQuery("proxy", fmt.Sprintf("proxyonly%03d.net", j))
	}
	return b.Build()
}

func labelPruneGraph(t *testing.T, g *Graph) {
	t.Helper()
	bl := intel.NewBlacklist()
	for _, d := range []string{"c2.solo.com", "c2.bot.com", "c2.bot2.com"} {
		bl.Add(intel.BlacklistEntry{Domain: d, FirstListed: 0})
	}
	wl := intel.NewWhitelist([]string{"popular.com"})
	g.ApplyLabels(LabelSources{Blacklist: bl, Whitelist: wl, AsOf: 10})
}

func TestPruneRequiresLabels(t *testing.T) {
	g := buildPruneGraph(t)
	if _, _, err := Prune(g, DefaultPruneConfig()); !errors.Is(err, ErrNotLabeled) {
		t.Fatalf("err = %v, want ErrNotLabeled", err)
	}
}

func TestPruneRules(t *testing.T) {
	g := buildPruneGraph(t)
	labelPruneGraph(t, g)
	cfg := DefaultPruneConfig()
	cfg.ProxyPercentile = 97 // small population: make R2 bite the proxy
	pruned, stats, err := Prune(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := pruned.MachineIndex("idle"); ok {
		t.Error("R1: idle machine must be pruned")
	}
	if _, ok := pruned.MachineIndex("idlebot"); !ok {
		t.Error("R1 exception: infected idle machine must survive")
	}
	if _, ok := pruned.MachineIndex("proxy"); ok {
		t.Error("R2: proxy machine must be pruned")
	}
	if _, ok := pruned.MachineIndex("m05"); !ok {
		t.Error("ordinary machine must survive")
	}
	if _, ok := pruned.DomainIndex("lonely.com"); ok {
		t.Error("R3: single-machine domain must be pruned")
	}
	if _, ok := pruned.DomainIndex("c2.solo.com"); !ok {
		t.Error("R3 exception: known malware domain must survive")
	}
	if _, ok := pruned.DomainIndex("www.popular.com"); ok {
		t.Error("R4: domain under near-universally queried e2LD must be pruned")
	}
	if _, ok := pruned.DomainIndex("site0.com"); !ok {
		t.Error("ordinary domain must survive")
	}

	if stats.DroppedR1 == 0 || stats.DroppedR2 == 0 || stats.DroppedR3 == 0 || stats.DroppedR4 == 0 {
		t.Errorf("every rule should fire: %+v", stats)
	}
	if stats.MachinesAfter >= stats.MachinesBefore || stats.DomainsAfter >= stats.DomainsBefore {
		t.Errorf("pruning must shrink the graph: %+v", stats)
	}
	if stats.EdgesAfter >= stats.EdgesBefore {
		t.Errorf("pruning must drop edges: %+v", stats)
	}
}

func TestPruneKeepsLabelsAndAnnotations(t *testing.T) {
	g := buildPruneGraph(t)
	labelPruneGraph(t, g)
	cfg := DefaultPruneConfig()
	cfg.ProxyPercentile = 97
	pruned, _, err := Prune(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := pruned.DomainIndex("c2.bot.com")
	if !ok {
		t.Fatal("c2.bot.com should survive (malware exception)")
	}
	if pruned.DomainLabel(d) != LabelMalware {
		t.Fatal("label must carry over")
	}
	if pruned.DomainE2LD(d) != "bot.com" {
		t.Fatalf("e2LD = %q, want bot.com", pruned.DomainE2LD(d))
	}
	m, ok := pruned.MachineIndex("idlebot")
	if !ok {
		t.Fatal("idlebot should survive")
	}
	if pruned.MachineLabel(m) != LabelMalware {
		t.Fatal("machine labels must be re-derived on the pruned graph")
	}
	if !pruned.Labeled() {
		t.Fatal("pruned graph must remain labeled")
	}
}

func TestPruneAdjacencyConsistent(t *testing.T) {
	g := buildPruneGraph(t)
	labelPruneGraph(t, g)
	cfg := DefaultPruneConfig()
	cfg.ProxyPercentile = 97
	pruned, _, err := Prune(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for m := int32(0); m < int32(pruned.NumMachines()); m++ {
		for _, d := range pruned.DomainsOf(m) {
			edges++
			found := false
			for _, mm := range pruned.MachinesOf(d) {
				if mm == m {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) missing from domain side", m, d)
			}
		}
	}
	if edges != pruned.NumEdges() {
		t.Fatalf("edge count mismatch: %d vs %d", edges, pruned.NumEdges())
	}
}

func TestPruneReductionStats(t *testing.T) {
	s := PruneStats{
		MachinesBefore: 100, MachinesAfter: 80,
		DomainsBefore: 200, DomainsAfter: 150,
		EdgesBefore: 1000, EdgesAfter: 700,
	}
	if got := s.MachineReduction(); got != 0.2 {
		t.Errorf("MachineReduction = %v, want 0.2", got)
	}
	if got := s.DomainReduction(); got != 0.25 {
		t.Errorf("DomainReduction = %v, want 0.25", got)
	}
	if got := s.EdgeReduction(); got != 0.3 {
		t.Errorf("EdgeReduction = %v, want 0.3", got)
	}
	var zero PruneStats
	if zero.MachineReduction() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestDegreePercentile(t *testing.T) {
	b := NewBuilder("T", 1, dnsutil.DefaultSuffixList())
	// Machine i queries i+1 domains, i in [0,9].
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			b.AddQuery(fmt.Sprintf("m%d", i), fmt.Sprintf("d%d.com", j))
		}
	}
	g := b.Build()
	if got := degreePercentile(g, 100); got != 10 {
		t.Errorf("p100 = %d, want 10", got)
	}
	if got := degreePercentile(g, 50); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := degreePercentile(g, 10); got != 1 {
		t.Errorf("p10 = %d, want 1", got)
	}
}

// requireE2LDIDs checks the id <-> name bijection on one graph: two domains
// share an e2LD id exactly when they share an e2LD, ids are below numE2LDs.
func requireE2LDIDs(t *testing.T, what string, g *Graph) {
	t.Helper()
	if len(g.domainE2LDID) != g.NumDomains() {
		t.Fatalf("%s: %d e2LD ids for %d domains", what, len(g.domainE2LDID), g.NumDomains())
	}
	byID, byName := map[int32]string{}, map[string]int32{}
	for d, e := range g.domainE2LDID {
		name := g.domainE2LD[d]
		if e < 0 || int(e) >= g.numE2LDs {
			t.Fatalf("%s: domain %s has e2LD id %d of %d", what, g.domains[d], e, g.numE2LDs)
		}
		if have, ok := byID[e]; ok && have != name {
			t.Fatalf("%s: e2LD id %d names both %q and %q", what, e, have, name)
		}
		if have, ok := byName[name]; ok && have != e {
			t.Fatalf("%s: e2LD %q has ids %d and %d", what, name, have, e)
		}
		byID[e], byName[name] = name, e
	}
}

// TestE2LDIDsMatchNames: every way a graph comes to be carries e2LD ids
// that say what the e2LD strings say, and along one builder an e2LD keeps
// its id.
func TestE2LDIDsMatchNames(t *testing.T) {
	sl := dnsutil.DefaultSuffixList()
	stream := func(b *Builder, from, to int) {
		for i := from; i < to; i++ {
			b.AddQuery(fmt.Sprintf("m%02d", i%17), fmt.Sprintf("h%d.zone%d.co.uk", i%23, i%9))
			b.AddResolution(fmt.Sprintf("only%d.res%d.org", i, i%4), dnsutil.IPv4(i))
		}
	}

	b := NewBuilder("net", 42, sl)
	stream(b, 0, 100)
	g1 := b.Snapshot()
	requireE2LDIDs(t, "first snapshot", g1)
	stream(b, 100, 300)
	g2 := b.Snapshot()
	requireE2LDIDs(t, "incremental snapshot", g2)
	for d := range g1.domains {
		if g1.domainE2LDID[d] != g2.domainE2LDID[d] {
			t.Fatalf("domain %s changed e2LD id %d -> %d along one builder", g1.domains[d], g1.domainE2LDID[d], g2.domainE2LDID[d])
		}
	}
	requireE2LDIDs(t, "first snapshot, after the builder moved on", g1)
	requireE2LDIDs(t, "batch build", b.Build())

	stages := make([]Stage, 2)
	day := NewBuilder("net", 42, sl)
	for round := 0; round < 3; round++ {
		for i := round * 100; i < (round+1)*100; i++ {
			machine := fmt.Sprintf("m%02d", i%17)
			stages[ShardOf(machine, 2)].AddEdge(day.Machine(machine), day.Domain(fmt.Sprintf("h%d.zone%d.co.uk", i%23, i%9)))
		}
		day.Fold(stages)
		requireE2LDIDs(t, fmt.Sprintf("staged snapshot %d", round), day.Snapshot())
	}

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g2); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeSnapshot(&buf, sl)
	if err != nil {
		t.Fatal(err)
	}
	stream(restored, 300, 350)
	requireE2LDIDs(t, "decoded checkpoint", restored.Snapshot())

	labelPruneGraph(t, g2)
	pruned, _, err := Prune(g2, DefaultPruneConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireE2LDIDs(t, "pruned graph", pruned)
}

// TestPrunedGraphIndexSharesBase: a pruned graph has no name index of its
// own — it resolves through its base's and a remap — and must resolve every
// name exactly as an index built from its own name slabs would: kept nodes
// to their new ids, dropped and unknown names to not-found. The pruned
// graph itself must equal FilterProbers + Prune, the oracle.
func TestPrunedGraphIndexSharesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder("net", 10, dnsutil.DefaultSuffixList())
	bl := intel.NewBlacklist()
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("h%d.zone%d.com", i, rng.Intn(1500))
		if i%50 == 0 {
			bl.Add(intel.BlacklistEntry{Domain: name, FirstListed: 0})
			b.AddQuery("prober", name) // a scanner walking the blacklist
		}
		for q := 1 + rng.Intn(4); q > 0; q-- {
			b.AddQuery(fmt.Sprintf("m%03d", rng.Intn(400)), name)
		}
	}
	// A second snapshot, so part of the base's index sits in its extra map.
	b.Snapshot()
	for i := 0; i < 50; i++ {
		b.AddQuery(fmt.Sprintf("late%02d", i), fmt.Sprintf("late%d.zone%d.com", i, i%7))
		b.AddQuery(fmt.Sprintf("late%02d", i), fmt.Sprintf("h%d.zone0.com", i))
	}
	g := b.Snapshot()
	g.ApplyLabels(LabelSources{Blacklist: bl, AsOf: 10})

	prober := ProberConfig{MinMalwareDomains: 20, MinMalwareFraction: 0.25}
	plan, err := NewPrunePlan(g, &prober, DefaultPruneConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	pruned := plan.Materialize()
	filtered, removed, err := FilterProbers(g, prober)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := Prune(filtered, DefaultPruneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 || pruned.NumDomains() == 0 || pruned.NumDomains() == g.NumDomains() {
		t.Fatalf("fixture: %d probers, %d of %d domains kept", len(removed), pruned.NumDomains(), g.NumDomains())
	}
	if !reflect.DeepEqual(pruned.domains, oracle.domains) || !reflect.DeepEqual(pruned.machineIDs, oracle.machineIDs) ||
		!reflect.DeepEqual(pruned.mOff, oracle.mOff) || !reflect.DeepEqual(pruned.mAdj, oracle.mAdj) ||
		!reflect.DeepEqual(pruned.dOff, oracle.dOff) || !reflect.DeepEqual(pruned.dAdj, oracle.dAdj) ||
		!reflect.DeepEqual(pruned.domainLabel, oracle.domainLabel) || !reflect.DeepEqual(pruned.machineLabel, oracle.machineLabel) ||
		!reflect.DeepEqual(pruned.domainE2LD, oracle.domainE2LD) || !reflect.DeepEqual(pruned.domainIPs, oracle.domainIPs) {
		t.Fatal("Materialize differs from FilterProbers + Prune")
	}

	for _, derived := range []*Graph{pruned, oracle, filtered} {
		domains, machines := map[string]int32{}, map[string]int32{}
		for d, name := range derived.domains {
			domains[name] = int32(d)
		}
		for m, id := range derived.machineIDs {
			machines[id] = int32(m)
		}
		for d := int32(0); d < int32(g.NumDomains()); d++ {
			name := g.DomainName(d)
			got, ok := derived.DomainIndex(name)
			if want, kept := domains[name]; ok != kept || (kept && got != want) {
				t.Fatalf("DomainIndex(%s) = %d, %v; the graph's own names say %d, %v", name, got, ok, want, kept)
			}
			if ok && derived.DomainName(got) != name {
				t.Fatalf("DomainIndex(%s) = %d, which is %s", name, got, derived.DomainName(got))
			}
		}
		for m := int32(0); m < int32(g.NumMachines()); m++ {
			id := g.MachineID(m)
			got, ok := derived.MachineIndex(id)
			if want, kept := machines[id]; ok != kept || (kept && got != want) {
				t.Fatalf("MachineIndex(%s) = %d, %v; the graph's own names say %d, %v", id, got, ok, want, kept)
			}
		}
		if _, ok := derived.DomainIndex("never.seen.example"); ok {
			t.Fatal("an unknown domain resolved")
		}
		if _, ok := derived.MachineIndex("nobody"); ok {
			t.Fatal("an unknown machine resolved")
		}
	}
	for d := int32(0); d < int32(pruned.NumDomains()); d++ {
		if o := pruned.DomainOrigin(d); g.DomainName(o) != pruned.DomainName(d) {
			t.Fatalf("DomainOrigin(%d) = %d: %s in the base, %s here", d, o, g.DomainName(o), pruned.DomainName(d))
		}
	}
}
