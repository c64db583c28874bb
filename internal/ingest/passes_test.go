package ingest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/logio"
)

// passStream is the seeded stream TestIngestSnapshotsMatchSingleBuilder
// feeds, cut into the prefixes after which it takes a pass. Every query
// is sent twice and every prefix is shuffled; the stream holds a
// fast-flux domain that crosses ipSetThreshold, machines and domains
// first seen mid-day, a domain resolved before it is queried (resolutions
// route by domain, queries by machine, so the two land in different
// shards), a first query under an e2LD other domains already hold, and a
// day rotation before the last two prefixes.
func passStream(seed int64) [][]logio.Event {
	rng := rand.New(rand.NewSource(seed))
	var prefixes [][]logio.Event
	var cur []logio.Event
	query := func(day int, machine, domain string) {
		for range 2 {
			cur = append(cur, logio.Event{Kind: logio.EventQuery, Day: day, Machine: machine, Domain: domain})
		}
	}
	resolve := func(day int, domain string, ips ...dnsutil.IPv4) {
		cur = append(cur, logio.Event{Kind: logio.EventResolution, Day: day, Domain: domain, IPs: ips})
	}
	cut := func() {
		rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		prefixes = append(prefixes, cur)
		cur = nil
	}
	domain := func(i int) string {
		switch i % 5 {
		case 0:
			return fmt.Sprintf("c2.evil%d.net", i%10)
		case 1:
			return fmt.Sprintf("www.good%d.com", i%20)
		default:
			return fmt.Sprintf("h%d.zone%d.example", i, i%13)
		}
	}
	ip := func() dnsutil.IPv4 { return dnsutil.IPv4(0x0a000000 + uint32(rng.Intn(1<<16))) }
	// cross is resolved in one prefix and first queried in a later one by
	// a machine routed to another shard at 2 and at 4 shards.
	const cross = "split.cross.example"
	crossMachine := ""
	for i := 0; crossMachine == ""; i++ {
		m := fmt.Sprintf("x%03d", i)
		if graph.ShardOf(m, 2) != graph.ShardOf(cross, 2) && graph.ShardOf(m, 4) != graph.ShardOf(cross, 4) {
			crossMachine = m
		}
	}

	for day := 5; day <= 6; day++ {
		// A base prefix: 60 machines over 150 domains, with addresses.
		for m := 0; m < 60; m++ {
			for k := 0; k < 6; k++ {
				query(day, fmt.Sprintf("m%03d", m), domain(rng.Intn(150)))
			}
		}
		for d := 0; d < 150; d += 3 {
			resolve(day, domain(d), ip(), ip())
		}
		cut()
		if day == 5 {
			// Known names only, plus the fast-flux domain's first addresses.
			for k := 0; k < 120; k++ {
				query(day, fmt.Sprintf("m%03d", rng.Intn(60)), domain(rng.Intn(150)))
			}
			for k := 0; k < 10; k++ {
				resolve(day, "cdn.flux.example", ip())
			}
			resolve(day, cross, ip())
			cut()
			// The fast-flux domain crosses the set threshold (repeating some
			// addresses), and new machines and domains arrive mid-day.
			for k := 0; k < 30; k++ {
				a := ip()
				resolve(day, "cdn.flux.example", a, a)
			}
			for m := 0; m < 15; m++ {
				for k := 0; k < 4; k++ {
					query(day, fmt.Sprintf("late%02d", m), fmt.Sprintf("n%d.midday%d.org", rng.Intn(40), rng.Intn(4)))
				}
				query(day, fmt.Sprintf("late%02d", m), "cdn.flux.example")
			}
			cut()
			// The resolved-only domain is first queried from another shard,
			// and a new name joins an e2LD that already has queried names.
			query(day, crossMachine, cross)
			query(day, "m007", "fresh.zone3.example")
			query(day, "m008", domain(rng.Intn(150)))
			resolve(day, "n1.midday1.org", ip())
			cut()
		}
	}
	return prefixes
}

// passView is a graph by name: what a pass over it would read.
type passView struct {
	Domains  map[string]domainView
	Machines map[string]machineView
}

type domainView struct {
	E2LD     string
	Machines []string
	IPs      []dnsutil.IPv4
	Label    graph.Label
	Vector   []float64
}

type machineView struct {
	Domains []string
	Label   graph.Label
}

func viewOf(t *testing.T, g *graph.Graph, act *activity.Log) passView {
	t.Helper()
	ex, err := features.NewExtractor(g, act, nil, 14)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, g.NumDomains())
	for d := range ids {
		ids[d] = int32(d)
	}
	vecs := features.VectorsOf(ex, ids)
	v := passView{Domains: make(map[string]domainView), Machines: make(map[string]machineView)}
	for d, vec := range vecs {
		dv := domainView{E2LD: g.DomainE2LD(int32(d)), Label: g.DomainLabel(int32(d)), Vector: vec}
		for _, m := range g.MachinesOf(int32(d)) {
			dv.Machines = append(dv.Machines, g.MachineID(m))
		}
		slices.Sort(dv.Machines)
		dv.IPs = slices.Clone(g.DomainIPs(int32(d)))
		slices.Sort(dv.IPs)
		v.Domains[g.DomainName(int32(d))] = dv
	}
	for m := int32(0); m < int32(g.NumMachines()); m++ {
		mv := machineView{Label: g.MachineLabel(m)}
		for _, d := range g.DomainsOf(m) {
			mv.Domains = append(mv.Domains, g.DomainName(d))
		}
		slices.Sort(mv.Domains)
		v.Machines[g.MachineID(m)] = mv
	}
	return v
}

// requireSameView fails on the first name whose view differs.
func requireSameView(t *testing.T, step string, want, got passView) {
	t.Helper()
	if len(want.Domains) != len(got.Domains) || len(want.Machines) != len(got.Machines) {
		t.Fatalf("%s: %d domains / %d machines, reference %d / %d", step,
			len(got.Domains), len(got.Machines), len(want.Domains), len(want.Machines))
	}
	for name, w := range want.Domains {
		if g, ok := got.Domains[name]; !ok || !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: domain %s is %+v, reference %+v", step, name, g, w)
		}
	}
	for id, w := range want.Machines {
		if g, ok := got.Machines[id]; !ok || !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: machine %s is %+v, reference %+v", step, id, g, w)
		}
	}
}

// TestIngestSnapshotsMatchSingleBuilder pins what a pass sees at every
// boundary, whatever the shard count: after each prefix of one seeded
// stream, SnapshotSince's graph must equal one graph.Builder fed the same
// prefix — names, adjacency, addresses, labels and feature vectors (node
// ids need not agree). The rotation is checked on both sides: the
// finished day handed over once, then the new day.
func TestIngestSnapshotsMatchSingleBuilder(t *testing.T) {
	prefixes := passStream(44)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			suffixes := dnsutil.DefaultSuffixList()
			src, _, _ := equivLabelSources()
			act, refAct := activity.NewLog(), activity.NewLog()
			m, _ := newMetrics()
			in := New(Config{
				Network: "pass", StartDay: 5, Workers: workers, Suffixes: suffixes, Activity: act, Metrics: m,
				PrepareSnapshot: func(g *graph.Graph) { g.ApplyLabels(src(g.Day())) },
			})
			defer in.Shutdown()

			ref := graph.NewBuilder("pass", 5, suffixes)
			refSnapshot := func() *graph.Graph {
				g := ref.Snapshot()
				g.ApplyLabels(src(g.Day()))
				return g
			}
			check := func(step string, want, got *graph.Graph) {
				t.Helper()
				if got.Day() != want.Day() {
					t.Fatalf("%s: day %d, reference %d", step, got.Day(), want.Day())
				}
				requireSameView(t, step, viewOf(t, want, refAct), viewOf(t, got, act))
			}
			apply := func(evs []logio.Event) {
				for _, e := range evs {
					if e.Day > ref.Day() {
						ref = graph.NewBuilder("pass", e.Day, suffixes)
					}
					switch e.Kind {
					case logio.EventQuery:
						ref.AddQuery(e.Machine, e.Domain)
					case logio.EventResolution:
						ref.SetDomainIPs(e.Domain, e.IPs)
					}
				}
				markEveryQuery(refAct, suffixes, evs)
				feed(t, in, m, evs)
			}

			var since uint64
			points := 0
			for i, evs := range prefixes {
				crosses := evs[0].Day > ref.Day()
				var finished *graph.Graph
				if crosses {
					// The day's last graph, as the reference saw it before the
					// rotation.
					finished = refSnapshot()
				}
				apply(evs)
				if crosses {
					g, v, _ := in.SnapshotSince(since)
					check(fmt.Sprintf("prefix %d: finished day", i), finished, g)
					since = v
					points++
				}
				g, v, _ := in.SnapshotSince(since)
				check(fmt.Sprintf("prefix %d", i), refSnapshot(), g)
				since = v
				points++
			}
			if points < 5 || m.Rotations.Value() != 1 || m.EventsStale.Value() != 0 {
				t.Fatalf("%d pass points, %d rotations, %d stale events; want ≥ 5, 1, 0", points, m.Rotations.Value(), m.EventsStale.Value())
			}
			requireActivityEquivalent(t, refAct, act, suffixes, slices.Concat(prefixes...), 5, 6)
		})
	}
}
