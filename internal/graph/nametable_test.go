package graph

import (
	"fmt"
	"sync"
	"testing"

	"segugio/internal/dnsutil"
)

// TestNameTableConcurrentIntern interns overlapping machine and domain
// names from four goroutines, by name only, while a fifth snapshots the
// builder (publishing its maps as they grow): every name must get exactly
// one id, e2LD names and ids must agree, and no snapshot may hold a name
// its own lookups cannot find. Meant for -race.
func TestNameTableConcurrentIntern(t *testing.T) {
	const (
		writers = 4
		names   = 3000
	)
	b := NewBuilder("net", 1, dnsutil.DefaultSuffixList())
	machineName := func(i int) string { return fmt.Sprintf("m%05d", i) }
	domainName := func(i int) string { return fmt.Sprintf("h%d.zone%d.example", i, i%37) }

	got := make([][2][]int32, writers) // per writer: machine ids, domain ids by name index
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := [2][]int32{make([]int32, names), make([]int32, names)}
			// Each writer walks the names from its own offset, so first
			// sight of a name races between writers.
			for k := 0; k < names; k++ {
				i := (k + w*names/writers) % names
				ids[0][i] = b.Machine(machineName(i))
				ids[1][i] = b.Domain(domainName(i))
				if k%7 == 0 {
					if e2 := b.E2LD(ids[1][i]); e2 != b.suffixes.E2LD(domainName(i)) {
						t.Errorf("E2LD(%s) = %q", domainName(i), e2)
						return
					}
				}
			}
			got[w] = ids
		}()
	}
	done := make(chan struct{})
	snaps := make(chan int, 1)
	go func() {
		n := 0
		defer func() { snaps <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := indexCoversSlabs(b.Snapshot()); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()
	wg.Wait()
	close(done)
	if n := <-snaps; n == 0 {
		t.Fatal("no snapshot ran beside the writers")
	}

	for w := 1; w < writers; w++ {
		for kind := range got[w] {
			for i, id := range got[w][kind] {
				if id != got[0][kind][i] {
					t.Fatalf("writer %d got id %d for name %d (kind %d), writer 0 got %d", w, id, i, kind, got[0][kind][i])
				}
			}
		}
	}
	g := b.Snapshot()
	if err := indexCoversSlabs(g); err != nil {
		t.Fatal(err)
	}
	if g.NumMachines() != names || g.NumDomains() != names {
		t.Fatalf("%d machines, %d domains; want %d distinct of each", g.NumMachines(), g.NumDomains(), names)
	}
	for i := 0; i < names; i++ {
		if g.MachineID(got[0][0][i]) != machineName(i) || g.DomainName(got[0][1][i]) != domainName(i) {
			t.Fatalf("name %d: ids %d/%d name %s/%s", i, got[0][0][i], got[0][1][i], g.MachineID(got[0][0][i]), g.DomainName(got[0][1][i]))
		}
	}
	requireE2LDIDs(t, "concurrently interned", g)
}

// indexCoversSlabs checks that every node a snapshot holds resolves by
// name to its own id.
func indexCoversSlabs(g *Graph) error {
	for m := int32(0); m < int32(g.NumMachines()); m++ {
		if id, ok := g.MachineIndex(g.MachineID(m)); !ok || id != m {
			return fmt.Errorf("snapshot of %d machines: %s looks up as %d, %v", g.NumMachines(), g.MachineID(m), id, ok)
		}
	}
	for d := int32(0); d < int32(g.NumDomains()); d++ {
		if id, ok := g.DomainIndex(g.DomainName(d)); !ok || id != d {
			return fmt.Errorf("snapshot of %d domains: %s looks up as %d, %v", g.NumDomains(), g.DomainName(d), id, ok)
		}
	}
	return nil
}
