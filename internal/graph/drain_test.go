package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/intel"
)

// shardedFixture is N shard builders draining into one merged builder,
// fed through the ShardOf routing the ingester uses, next to a single
// reference builder that sees the same stream undivided.
type shardedFixture struct {
	shards []*graph.Builder
	merged *graph.Builder
	ref    *graph.Builder
	act    *activity.Log
	src    graph.LabelSources
}

func newShardedFixture(n int) *shardedFixture {
	sl := dnsutil.DefaultSuffixList()
	f := &shardedFixture{
		shards: make([]*graph.Builder, n),
		merged: graph.NewBuilder("net", 7, sl),
		ref:    graph.NewBuilder("net", 7, sl),
		act:    activity.NewLog(),
	}
	for s := range f.shards {
		f.shards[s] = graph.NewBuilder("net", 7, sl)
	}
	bl := intel.NewBlacklist()
	bl.Add(intel.BlacklistEntry{Domain: "c2.evil.net", Family: "fam", FirstListed: 0})
	f.src = graph.LabelSources{Blacklist: bl, Whitelist: intel.NewWhitelist([]string{"good.com"}), AsOf: 7}
	return f
}

func (f *shardedFixture) query(machine, domain string) {
	e2ld, first := f.shards[graph.ShardOf(machine, len(f.shards))].AddQuery(machine, domain)
	if first {
		f.act.MarkDomain(7, domain)
		f.act.MarkE2LD(7, e2ld)
	}
	f.ref.AddQuery(machine, domain)
}

func (f *shardedFixture) resolve(domain string, ip dnsutil.IPv4) {
	f.shards[graph.ShardOf(domain, len(f.shards))].AddResolution(domain, ip)
	f.ref.AddResolution(domain, ip)
}

// snapshots drains every shard into the merged builder and returns the
// labeled merged and reference snapshots.
func (f *shardedFixture) snapshots() (merged, ref *graph.Graph) {
	for _, sh := range f.shards {
		sh.DrainInto(f.merged)
	}
	merged, ref = f.merged.Snapshot(), f.ref.Snapshot()
	merged.ApplyLabels(f.src)
	f.merged.MarkLabeled(merged)
	ref.ApplyLabels(f.src)
	f.ref.MarkLabeled(ref)
	return merged, ref
}

// requireSameView compares the two snapshots by name (intern order
// differs between a drained merge and a sequential build): shape, e2LD
// annotations, addresses, feature vectors, and the dirty set.
func requireSameView(t *testing.T, step string, f *shardedFixture, merged, ref *graph.Graph) {
	t.Helper()
	if merged.NumMachines() != ref.NumMachines() || merged.NumDomains() != ref.NumDomains() || merged.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: merged shape %d/%d/%d, reference %d/%d/%d", step,
			merged.NumMachines(), merged.NumDomains(), merged.NumEdges(),
			ref.NumMachines(), ref.NumDomains(), ref.NumEdges())
	}
	exM, err := features.NewExtractor(merged, f.act, nil, 14)
	if err != nil {
		t.Fatal(err)
	}
	exR, err := features.NewExtractor(ref, f.act, nil, 14)
	if err != nil {
		t.Fatal(err)
	}
	for rd := int32(0); rd < int32(ref.NumDomains()); rd++ {
		name := ref.DomainName(rd)
		md, ok := merged.DomainIndex(name)
		if !ok {
			t.Fatalf("%s: domain %s missing from the merged view", step, name)
		}
		if got, want := merged.DomainE2LD(md), ref.DomainE2LD(rd); got != want {
			t.Fatalf("%s: domain %s e2LD %q, reference %q", step, name, got, want)
		}
		gotIPs, wantIPs := slices.Clone(merged.DomainIPs(md)), slices.Clone(ref.DomainIPs(rd))
		slices.Sort(gotIPs)
		slices.Sort(wantIPs)
		if !slices.Equal(gotIPs, wantIPs) {
			t.Fatalf("%s: domain %s addresses %v, reference %v", step, name, gotIPs, wantIPs)
		}
		if got, want := exM.Vector(md), exR.Vector(rd); !slices.Equal(got, want) {
			t.Fatalf("%s: domain %s feature vector %v, reference %v", step, name, got, want)
		}
	}
	gotDirty, gotExact := dirtyNames(merged)
	wantDirty, wantExact := dirtyNames(ref)
	slices.Sort(gotDirty)
	slices.Sort(wantDirty)
	if gotExact != wantExact || !slices.Equal(gotDirty, wantDirty) {
		t.Fatalf("%s: merged dirty set (exact=%v) %v, reference (exact=%v) %v", step, gotExact, gotDirty, wantExact, wantDirty)
	}
}

// TestDrainIntoMatchesSingleBuilder is the contract of the id-translated
// drain: whatever mix of new names, duplicate observations, new
// addresses and cross-shard first sightings the shards absorb, the
// merged builder's snapshots carry the same features and the same exact
// dirty set as one builder fed the whole stream.
func TestDrainIntoMatchesSingleBuilder(t *testing.T) {
	const shards = 3
	f := newShardedFixture(shards)

	// A machine whose shard differs from the shard owning the domain's
	// resolutions: the name is interned by a resolution in one shard and
	// first queried in another.
	const crossDomain = "late.cross.org"
	crossMachine := ""
	for i := 0; crossMachine == ""; i++ {
		if id := fmt.Sprintf("xm%d", i); graph.ShardOf(id, shards) != graph.ShardOf(crossDomain, shards) {
			crossMachine = id
		}
	}

	for i := 0; i < 6; i++ {
		f.query(fmt.Sprintf("inf%d", i), "c2.evil.net")
		f.query(fmt.Sprintf("inf%d", i), fmt.Sprintf("u%d.gray.org", i%3))
	}
	for i := 0; i < 40; i++ {
		f.query(fmt.Sprintf("m%02d", i%13), fmt.Sprintf("h%d.zone%d.com", i%9, i%4))
		f.query(fmt.Sprintf("m%02d", i%13), "www.good.com")
	}
	f.resolve("c2.evil.net", dnsutil.IPv4(0x0a000001))
	f.resolve(crossDomain, dnsutil.IPv4(0x0a000002)) // resolution-only so far
	merged, ref := f.snapshots()
	if _, exact := merged.DirtyDomains(); exact {
		t.Fatal("first merged snapshot claims an exact delta")
	}
	requireSameView(t, "base", f, merged, ref)

	// First query of the resolution-interned name, from another shard; its
	// e2LD sibling must turn dirty with it.
	f.resolve("sibling.cross.org", dnsutil.IPv4(0x0a000003))
	merged, ref = f.snapshots()
	requireSameView(t, "sibling resolution", f, merged, ref)
	f.query(crossMachine, crossDomain)
	merged, ref = f.snapshots()
	requireSameView(t, "cross-shard first query", f, merged, ref)
	if dirty, _ := dirtyNames(merged); !slices.Contains(dirty, "sibling.cross.org") {
		t.Fatalf("e2LD sibling of the first-queried name not dirty: %v", dirty)
	}

	// Duplicates only: nothing may surface.
	f.query("inf0", "c2.evil.net")
	f.query("m00", "www.good.com")
	f.resolve("c2.evil.net", dnsutil.IPv4(0x0a000001))
	merged, ref = f.snapshots()
	requireSameView(t, "duplicates", f, merged, ref)
	if dirty, exact := merged.DirtyDomains(); !exact || len(dirty) != 0 {
		t.Fatalf("duplicate observations dirtied %v (exact=%v)", dirty, exact)
	}

	// A mixed round, drained shard by shard between appends so the
	// translation tables grow more than once per snapshot.
	for i := 0; i < 30; i++ {
		f.query(fmt.Sprintf("n%02d", i%7), fmt.Sprintf("new%d.fresh.example", i%11))
		f.query(fmt.Sprintf("inf%d", i%6), fmt.Sprintf("new%d.fresh.example", i%5))
		if i%10 == 9 {
			for _, sh := range f.shards {
				sh.DrainInto(f.merged)
			}
		}
	}
	f.resolve("new3.fresh.example", dnsutil.IPv4(0x0b000001))
	f.resolve("c2.evil.net", dnsutil.IPv4(0x0b000002))
	merged, ref = f.snapshots()
	requireSameView(t, "mixed round", f, merged, ref)

	// A shard's own snapshot folds the adjacency its drains left behind.
	for s, sh := range f.shards {
		g := sh.Snapshot()
		edges := 0
		for m := int32(0); m < int32(g.NumMachines()); m++ {
			edges += len(g.DomainsOf(m))
		}
		back := 0
		for d := int32(0); d < int32(g.NumDomains()); d++ {
			back += len(g.MachinesOf(d))
		}
		if edges != g.NumEdges() || back != g.NumEdges() {
			t.Fatalf("shard %d snapshot adjacency holds %d/%d edges, base run %d", s, edges, back, g.NumEdges())
		}
	}
	// ... and keeps draining correctly afterwards.
	f.query(crossMachine, "after.snapshot.example")
	merged, ref = f.snapshots()
	requireSameView(t, "after shard snapshots", f, merged, ref)
}

// dirtyNames is g's dirty set by name, as its Delta names it.
func dirtyNames(g *graph.Graph) ([]string, bool) {
	d := g.DeltaOf(g.DirtyDomains())
	return d.Domains, d.Exact
}
