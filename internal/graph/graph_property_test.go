package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"segugio/internal/dnsutil"
	"segugio/internal/intel"
)

// randomGraph builds a random labeled bipartite graph from a seed.
func randomGraph(seed int64) *Graph { return randomGraphIn(seed, 0) }

// randomGraphIn is randomGraph with the domains spread over zones shared
// e2LDs when zones > 0 (the whitelist then lists zones). Such a graph is
// the second of two incremental snapshots, so part of its adjacency sits
// in the overlay.
func randomGraphIn(seed int64, zones int) *Graph {
	day := randomDayIn(seed, zones)
	b := NewBuilder("Q", 1, dnsutil.DefaultSuffixList())
	for i, q := range day.queries {
		if zones > 0 && i == day.half {
			b.Snapshot()
		}
		b.AddQuery(q[0], q[1])
	}
	var g *Graph
	if zones > 0 {
		g = b.Snapshot()
	} else {
		g = b.Build()
	}
	g.ApplyLabels(day.src)
	return g
}

// randomDay is what randomGraphIn builds its graph from: the queries as
// (machine, domain) names in machine order, the query index of the
// intermediate snapshot, and the ground truth that labels them.
type randomDay struct {
	queries [][2]string
	half    int
	src     LabelSources
}

func randomDayIn(seed int64, zones int) randomDay {
	rng := rand.New(rand.NewSource(seed))
	nm := 5 + rng.Intn(30)
	nd := 5 + rng.Intn(40)
	domain := func(d int) string {
		if zones > 0 {
			return fmt.Sprintf("d%03d.z%d.com", d, d%zones)
		}
		return fmt.Sprintf("d%03d.com", d)
	}
	var day randomDay
	for m := 0; m < nm; m++ {
		id := fmt.Sprintf("m%03d", m)
		edges := 1 + rng.Intn(8)
		for e := 0; e < edges; e++ {
			day.queries = append(day.queries, [2]string{id, domain(rng.Intn(nd))})
		}
		if m == nm/2 {
			day.half = len(day.queries)
		}
	}
	bl := intel.NewBlacklist()
	wl := []string{}
	for d := 0; d < nd; d++ {
		switch rng.Intn(4) {
		case 0:
			bl.Add(intel.BlacklistEntry{Domain: domain(d)})
		case 1:
			if zones == 0 {
				wl = append(wl, domain(d))
			}
		}
	}
	for z := 0; z < zones; z++ {
		if rng.Intn(4) == 0 {
			wl = append(wl, fmt.Sprintf("z%d.com", z))
		}
	}
	day.src = LabelSources{Blacklist: bl, Whitelist: intel.NewWhitelist(wl), AsOf: 1}
	return day
}

// TestGraphInvariants checks structural invariants on random graphs:
// adjacency symmetry, degree/edge accounting, and machine-label
// consistency with the labeling rules.
func TestGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)

		// Degree sums equal the edge count on both sides.
		sumM, sumD := 0, 0
		for m := int32(0); m < int32(g.NumMachines()); m++ {
			sumM += g.MachineDegree(m)
		}
		for d := int32(0); d < int32(g.NumDomains()); d++ {
			sumD += g.DomainDegree(d)
		}
		if sumM != g.NumEdges() || sumD != g.NumEdges() {
			return false
		}

		// Machine labels follow from the counts, and the counts follow
		// from the domain labels.
		for m := int32(0); m < int32(g.NumMachines()); m++ {
			mal, nonBenign := 0, 0
			for _, d := range g.DomainsOf(m) {
				switch g.DomainLabel(d) {
				case LabelMalware:
					mal++
					nonBenign++
				case LabelUnknown:
					nonBenign++
				}
			}
			if mal != g.MachineMalwareCount(m) || nonBenign != g.MachineNonBenignCount(m) {
				return false
			}
			want := LabelUnknown
			switch {
			case mal > 0:
				want = LabelMalware
			case nonBenign == 0:
				want = LabelBenign
			}
			if g.MachineLabel(m) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPruneInvariants checks that pruned graphs respect the rules they
// were pruned with, for random inputs.
func TestPruneInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		cfg := PruneConfig{
			MaxInactiveDegree:      2,
			ProxyPercentile:        99.99,
			MinDomainMachines:      2,
			MaxE2LDMachineFraction: 0.9,
		}
		pruned, stats, err := Prune(g, cfg)
		if err != nil {
			return false
		}
		if stats.MachinesAfter != pruned.NumMachines() ||
			stats.DomainsAfter != pruned.NumDomains() ||
			stats.EdgesAfter != pruned.NumEdges() {
			return false
		}
		// Every surviving non-malware domain has >= MinDomainMachines
		// queriers (R3 ran against surviving machines).
		for d := int32(0); d < int32(pruned.NumDomains()); d++ {
			if pruned.DomainLabel(d) != LabelMalware &&
				pruned.DomainDegree(d) < cfg.MinDomainMachines {
				return false
			}
		}
		// Every surviving machine either was malware-labeled (the R1
		// exception) or had degree above R1's threshold in the ORIGINAL
		// graph.
		for m := int32(0); m < int32(pruned.NumMachines()); m++ {
			orig, ok := g.MachineIndex(pruned.MachineID(m))
			if !ok {
				return false
			}
			if g.MachineLabel(orig) != LabelMalware &&
				g.MachineDegree(orig) <= cfg.MaxInactiveDegree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
