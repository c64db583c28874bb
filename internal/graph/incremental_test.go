package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"segugio/internal/dnsutil"
)

// graphsEqual compares the name-keyed structure of two graphs: the same
// machines, domains, annotations, and edges, independent of the node
// numbering (which legitimately depends on observation order).
func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumMachines() != b.NumMachines() || a.NumDomains() != b.NumDomains() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: (%d,%d,%d) vs (%d,%d,%d)",
			a.NumMachines(), a.NumDomains(), a.NumEdges(),
			b.NumMachines(), b.NumDomains(), b.NumEdges())
	}
	adjOf := func(g *Graph, m int32) []string {
		var out []string
		for _, d := range g.DomainsOf(m) {
			out = append(out, g.DomainName(d))
		}
		sort.Strings(out)
		return out
	}
	ipsOf := func(g *Graph, d int32) []string {
		var out []string
		for _, ip := range g.DomainIPs(d) {
			out = append(out, ip.String())
		}
		sort.Strings(out)
		return out
	}
	for m := int32(0); int(m) < a.NumMachines(); m++ {
		bm, ok := b.MachineIndex(a.MachineID(m))
		if !ok {
			t.Fatalf("machine %q missing from second graph", a.MachineID(m))
		}
		aa, ba := adjOf(a, m), adjOf(b, bm)
		if !reflect.DeepEqual(aa, ba) {
			t.Fatalf("machine %q adjacency differs:\n  %v\n  %v", a.MachineID(m), aa, ba)
		}
	}
	for d := int32(0); int(d) < a.NumDomains(); d++ {
		bd, ok := b.DomainIndex(a.DomainName(d))
		if !ok {
			t.Fatalf("domain %q missing from second graph", a.DomainName(d))
		}
		if a.DomainE2LD(d) != b.DomainE2LD(bd) {
			t.Fatalf("domain %q e2LD: %q vs %q", a.DomainName(d), a.DomainE2LD(d), b.DomainE2LD(bd))
		}
		if !reflect.DeepEqual(ipsOf(a, d), ipsOf(b, bd)) {
			t.Fatalf("domain %q ips differ: %v vs %v", a.DomainName(d), ipsOf(a, d), ipsOf(b, bd))
		}
		if a.DomainDegree(d) != b.DomainDegree(bd) {
			t.Fatalf("domain %q degree: %d vs %d", a.DomainName(d), a.DomainDegree(d), b.DomainDegree(bd))
		}
	}
}

// TestIncrementalEquivalence checks that the streaming append path
// (interleaved AddQuery/AddResolution with intermediate snapshots) ends at
// a graph identical to the one-shot batch construction over the same
// observations — the acceptance criterion for segugiod's in-place updates.
func TestIncrementalEquivalence(t *testing.T) {
	sl := dnsutil.DefaultSuffixList()
	rng := rand.New(rand.NewSource(9))

	type query struct{ machine, domain string }
	var queries []query
	var resolutions []struct {
		domain string
		ip     dnsutil.IPv4
	}
	for i := 0; i < 4000; i++ {
		q := query{
			machine: fmt.Sprintf("m%03d", rng.Intn(80)),
			domain:  fmt.Sprintf("host%d.zone%d.com", rng.Intn(60), rng.Intn(25)),
		}
		queries = append(queries, q)
		if rng.Intn(3) == 0 {
			resolutions = append(resolutions, struct {
				domain string
				ip     dnsutil.IPv4
			}{q.domain, dnsutil.MakeIPv4(10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(50)))})
		}
	}

	batch := NewBuilder("net", 7, sl)
	for _, q := range queries {
		batch.AddQuery(q.machine, q.domain)
	}
	byDomain := map[string][]dnsutil.IPv4{}
	for _, r := range resolutions {
		byDomain[r.domain] = append(byDomain[r.domain], r.ip)
	}
	for d, ips := range byDomain {
		batch.SetDomainIPs(d, ips)
	}
	want := batch.Build()

	// Streaming: same observations one at a time, with snapshots taken
	// mid-stream (they must not perturb the final result).
	inc := NewBuilder("net", 7, sl)
	ri := 0
	var mid *Graph
	for i, q := range queries {
		inc.AddQuery(q.machine, q.domain)
		for ri < len(resolutions) && ri*3 <= i {
			inc.AddResolution(resolutions[ri].domain, resolutions[ri].ip)
			ri++
		}
		if i == len(queries)/2 {
			mid = inc.Snapshot()
		}
	}
	for ; ri < len(resolutions); ri++ {
		inc.AddResolution(resolutions[ri].domain, resolutions[ri].ip)
	}
	got := inc.Snapshot()
	graphsEqual(t, want, got)

	// The mid-stream snapshot must be immune to the appends that followed.
	if mid.NumEdges() >= got.NumEdges() {
		t.Fatalf("mid snapshot has %d edges, final %d", mid.NumEdges(), got.NumEdges())
	}
	midAgainIdx, ok := mid.DomainIndex(queries[0].domain)
	if !ok {
		t.Fatalf("mid snapshot lost %q", queries[0].domain)
	}
	if mid.DomainName(midAgainIdx) != queries[0].domain {
		t.Fatal("mid snapshot index corrupt")
	}

	// Labels behave the same on snapshots as on batch-built graphs.
	want.ApplyLabels(LabelSources{AsOf: 7})
	got.ApplyLabels(LabelSources{AsOf: 7})
	for m := int32(0); int(m) < want.NumMachines(); m++ {
		gm, _ := got.MachineIndex(want.MachineID(m))
		if want.MachineLabel(m) != got.MachineLabel(gm) {
			t.Fatalf("machine %q label differs", want.MachineID(m))
		}
	}
}

// TestSnapshotIsolation verifies a snapshot can be read while the Builder
// keeps growing (run under -race to make the guarantee meaningful).
func TestSnapshotIsolation(t *testing.T) {
	sl := dnsutil.DefaultSuffixList()
	b := NewBuilder("net", 1, sl)
	for i := 0; i < 500; i++ {
		b.AddQuery(fmt.Sprintf("m%d", i%20), fmt.Sprintf("d%d.example.com", i%50))
		b.AddResolution(fmt.Sprintf("d%d.example.com", i%50), dnsutil.MakeIPv4(10, 0, 0, byte(i%200)))
	}
	snap := b.Snapshot()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			b.AddQuery(fmt.Sprintf("x%d", i), fmt.Sprintf("new%d.example.org", i))
			b.AddResolution(fmt.Sprintf("new%d.example.org", i), dnsutil.MakeIPv4(10, 1, 0, byte(i%200)))
		}
	}()
	total := 0
	for k := 0; k < 50; k++ {
		for d := int32(0); int(d) < snap.NumDomains(); d++ {
			total += len(snap.MachinesOf(d)) + len(snap.DomainIPs(d))
			if _, ok := snap.DomainIndex(snap.DomainName(d)); !ok {
				t.Error("snapshot index lookup failed")
			}
		}
	}
	<-done
	if total == 0 {
		t.Fatal("snapshot unexpectedly empty")
	}
	if snap.NumMachines() != 20 || snap.NumDomains() != 50 {
		t.Fatalf("snapshot grew: %d machines, %d domains", snap.NumMachines(), snap.NumDomains())
	}
}

// TestSnapshotOverlayFoldMatchesBuild drives folds that run the base
// merge and the overlay's two sides on three goroutines: after each one
// the snapshot equals a batch build of the same queries, and the
// snapshots taken before it are unchanged (run under -race).
func TestSnapshotOverlayFoldMatchesBuild(t *testing.T) {
	sl := dnsutil.DefaultSuffixList()
	rng := rand.New(rand.NewSource(51))
	var queries [][2]string
	add := func(n int) {
		for i := 0; i < n; i++ {
			queries = append(queries, [2]string{fmt.Sprintf("m%03d", rng.Intn(600)), fmt.Sprintf("h%d.z%d.org", rng.Intn(3000), rng.Intn(40))})
		}
	}
	build := func(qs [][2]string) *Graph {
		b := NewBuilder("net", 3, sl)
		for _, q := range qs {
			b.AddQuery(q[0], q[1])
		}
		return b.Build()
	}

	inc := NewBuilder("net", 3, sl)
	fed := 0
	feed := func() *Graph {
		for _, q := range queries[fed:] {
			inc.AddQuery(q[0], q[1])
		}
		fed = len(queries)
		return inc.Snapshot()
	}
	add(10000)
	snaps := []*Graph{feed()}
	builds := []*Graph{build(queries)}
	overlaid := 0
	for round := 0; round < 3; round++ {
		add(1500)
		before := inc.ovEdges
		snaps = append(snaps, feed())
		builds = append(builds, build(queries))
		if inc.ovEdges > before {
			overlaid++
		}
		for i := range snaps {
			graphsEqual(t, builds[i], snaps[i])
		}
	}
	if overlaid < 2 {
		t.Fatalf("fixture: %d of 3 folds went through the overlay concurrently, want at least 2", overlaid)
	}
}
