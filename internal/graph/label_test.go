package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/intel"
)

// labelStep says how a label sequence treats the snapshot taken after
// one of its feeds.
type labelStep int

const (
	// stepLabel labels the snapshot from the sequence's sources.
	stepLabel labelStep = iota
	// stepSkip leaves it unlabeled, as a checkpoint's fold is.
	stepSkip
	// stepHidden labels it, then relabels it with a third of its domains
	// hidden.
	stepHidden
)

// checkLabelOracle feeds feeds[i] to one streaming Builder, snapshots it
// after each feed and treats snapshot i as steps[i] says. Every labeled
// snapshot must carry the labels, label counts and LabelStats of a batch
// Build of the same prefix labeled from the same sources, and must still
// carry them once the whole sequence is labeled: a later snapshot's
// relabel never writes an earlier one's labels.
func checkLabelOracle(t *testing.T, feeds []func(*Builder), steps []labelStep, src LabelSources) {
	t.Helper()
	type labeled struct {
		step     string
		got, ref *Graph
	}
	var done []labeled
	b := NewBuilder("oracle", 7, dnsutil.DefaultSuffixList())
	for i, feed := range feeds {
		feed(b)
		g := b.Snapshot()
		if steps[i] == stepSkip {
			continue
		}
		ref := NewBuilder("oracle", 7, dnsutil.DefaultSuffixList())
		for _, f := range feeds[:i+1] {
			f(ref)
		}
		want := ref.Build()
		g.ApplyLabels(src)
		want.ApplyLabels(src)
		step := fmt.Sprintf("snapshot %d", i)
		requireSameLabels(t, step, want, g)
		if steps[i] == stepHidden {
			held := slices.Clone(g.machineLabel)
			hidden := LabelSources{Blacklist: src.Blacklist, Whitelist: src.Whitelist, AsOf: src.AsOf,
				Hidden: map[string]struct{}{}}
			for d := 0; d < g.NumDomains(); d += 3 {
				hidden.Hidden[g.DomainName(int32(d))] = struct{}{}
			}
			prev := g.machineLabel
			g.ApplyLabels(hidden)
			want.ApplyLabels(hidden)
			step += " hidden"
			requireSameLabels(t, step, want, g)
			if !slices.Equal(prev, held) {
				t.Fatalf("%s: relabelling wrote the machine labels a reader held", step)
			}
		}
		done = append(done, labeled{step, g, want})
	}
	for _, l := range done {
		requireSameLabels(t, l.step+" at the end", l.ref, l.got)
	}
}

// requireSameLabels fails unless got labels every node as want does, by
// name, with the same per-machine counts and the same LabelStats.
func requireSameLabels(t *testing.T, step string, want, got *Graph) {
	t.Helper()
	if !got.Labeled() || got.LabeledAsOf() != want.LabeledAsOf() {
		t.Fatalf("%s: labeled %v as of %d, want as of %d", step, got.Labeled(), got.LabeledAsOf(), want.LabeledAsOf())
	}
	if got.NumMachines() != want.NumMachines() || got.NumDomains() != want.NumDomains() {
		t.Fatalf("%s: %d machines / %d domains, batch %d / %d", step,
			got.NumMachines(), got.NumDomains(), want.NumMachines(), want.NumDomains())
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats %+v, batch %+v", step, got.stats, want.stats)
	}
	for d := int32(0); int(d) < want.NumDomains(); d++ {
		name := want.DomainName(d)
		gd, _ := got.DomainIndex(name)
		if got.DomainLabel(gd) != want.DomainLabel(d) {
			t.Fatalf("%s: domain %s labeled %v, batch %v", step, name, got.DomainLabel(gd), want.DomainLabel(d))
		}
	}
	for m := int32(0); int(m) < want.NumMachines(); m++ {
		id := want.MachineID(m)
		gm, _ := got.MachineIndex(id)
		if got.MachineLabel(gm) != want.MachineLabel(m) ||
			got.MachineMalwareCount(gm) != want.MachineMalwareCount(m) ||
			got.MachineNonBenignCount(gm) != want.MachineNonBenignCount(m) {
			t.Fatalf("%s: machine %s is %v (%d malware, %d non-benign), batch %v (%d, %d)", step, id,
				got.MachineLabel(gm), got.MachineMalwareCount(gm), got.MachineNonBenignCount(gm),
				want.MachineLabel(m), want.MachineMalwareCount(m), want.MachineNonBenignCount(m))
		}
	}
}

// TestLabelOracle runs randomDayIn's observations, shuffled and with
// repeats and resolutions added, through checkLabelOracle in random
// cuts: some snapshots labeled, some left unlabeled, some relabeled with
// a hidden set.
func TestLabelOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		zones := int(seed % 4)
		t.Run(fmt.Sprintf("seed=%d/zones=%d", seed, zones), func(t *testing.T) {
			day := randomDayIn(seed, zones)
			rng := rand.New(rand.NewSource(seed))
			type event struct {
				query [2]string
				ip    dnsutil.IPv4 // nonzero: a resolution of query[1]
			}
			var events []event
			for _, q := range day.queries {
				events = append(events, event{query: q})
				if rng.Intn(4) == 0 {
					events = append(events, event{query: q}) // a repeat
				}
				if rng.Intn(5) == 0 {
					events = append(events, event{query: q, ip: dnsutil.IPv4(1 + rng.Intn(9))})
				}
			}
			for i := 0; i < 3; i++ {
				events = append(events, event{query: [2]string{"", fmt.Sprintf("resolved%d.z0.com", i)}, ip: 1})
			}
			rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

			var feeds []func(*Builder)
			var steps []labelStep
			for lo := 0; lo < len(events); {
				hi := min(len(events), lo+1+rng.Intn(len(events)/4+1))
				chunk := events[lo:hi]
				feeds = append(feeds, func(b *Builder) {
					for _, e := range chunk {
						if e.ip != 0 {
							b.AddResolution(e.query[1], e.ip)
						} else {
							b.AddQuery(e.query[0], e.query[1])
						}
					}
				})
				steps = append(steps, []labelStep{stepLabel, stepLabel, stepSkip, stepHidden}[rng.Intn(4)])
				lo = hi
			}
			checkLabelOracle(t, feeds, steps, day.src)
		})
	}
}

// dirtyBase populates the shared baseline for the relabel table: three
// querying machines, domains across several e2LDs, and two
// resolution-only domains under a never-queried e2LD.
func dirtyBase(b *Builder) {
	b.AddQuery("m1", "a.one.com")
	b.AddQuery("m1", "b.two.com")
	b.AddQuery("m2", "b.two.com")
	b.AddQuery("m3", "c.three.com")
	b.AddResolution("c.three.com", dnsutil.IPv4(0x01010101))
	b.AddResolution("r1.shared.org", dnsutil.IPv4(0x02020202))
	b.AddResolution("r2.shared.org", dnsutil.IPv4(0x03030303))
}

// dirtySources labels c.three.com malware and one.com benign, so machine
// labels depend on which domains a machine queries.
func dirtySources() LabelSources {
	bl := intel.NewBlacklist()
	bl.Add(intel.BlacklistEntry{Domain: "c.three.com", Family: "fam"})
	return LabelSources{Blacklist: bl, Whitelist: intel.NewWhitelist([]string{"one.com"}), AsOf: 7}
}

// TestDirtySet runs the hand-written relabel cases through
// checkLabelOracle: each change lands after a labeled baseline, once
// straight before the measured snapshot and once in a snapshot left
// unlabeled between the two, whose changes the measured snapshot must
// still pick up from the baseline.
func TestDirtySet(t *testing.T) {
	cases := []struct {
		name string
		// mutate runs between the labeled baseline and the measured one.
		mutate func(b *Builder)
	}{
		{name: "no changes", mutate: func(b *Builder) {}},
		{name: "duplicate query dedups to nothing", mutate: func(b *Builder) { b.AddQuery("m1", "a.one.com") }},
		{
			name:   "duplicate resolution dedups to nothing",
			mutate: func(b *Builder) { b.AddResolution("c.three.com", dnsutil.IPv4(0x01010101)) },
		},
		{name: "new edge between existing nodes", mutate: func(b *Builder) { b.AddQuery("m2", "c.three.com") }},
		{name: "new domain under a new e2LD", mutate: func(b *Builder) { b.AddQuery("m1", "x.new.net") }},
		{name: "new domain under an already-queried e2LD", mutate: func(b *Builder) { b.AddQuery("m9", "d.three.com") }},
		{name: "first query of a resolution-only e2LD", mutate: func(b *Builder) { b.AddQuery("m1", "r1.shared.org") }},
		{
			name:   "new resolution on an existing domain",
			mutate: func(b *Builder) { b.AddResolution("c.three.com", dnsutil.IPv4(0x0a0b0c0d)) },
		},
		{
			name:   "resolution-only new domain",
			mutate: func(b *Builder) { b.AddResolution("y.four.org", dnsutil.IPv4(0x04040404)) },
		},
	}
	src := dirtySources()
	nothing := func(*Builder) {}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkLabelOracle(t, []func(*Builder){dirtyBase, tc.mutate}, []labelStep{stepLabel, stepLabel}, src)
			checkLabelOracle(t, []func(*Builder){dirtyBase, tc.mutate, nothing},
				[]labelStep{stepLabel, stepSkip, stepLabel}, src)
		})
	}
}

// TestLabelBaseIsNewestLabeled pins which snapshot a new one starts its
// labels from: the newest labeled one, skipping unlabeled ones, and none
// once a hidden set relabeled it.
func TestLabelBaseIsNewestLabeled(t *testing.T) {
	src := dirtySources()
	b := NewBuilder("oracle", 7, dnsutil.DefaultSuffixList())
	dirtyBase(b)
	first := b.Snapshot()
	if first.labelBase.Load() != nil {
		t.Fatal("the first snapshot has a label base")
	}
	first.ApplyLabels(src)
	skipped := b.Snapshot()
	if skipped.labelBase.Load() != first {
		t.Fatal("the snapshot after a labeled one does not start from it")
	}
	b.AddQuery("m2", "c.three.com")
	g := b.Snapshot()
	if g.labelBase.Load() != first {
		t.Fatal("an unlabeled snapshot became a label base")
	}
	g.ApplyLabels(src)
	if g.labelBase.Load() != nil {
		t.Fatal("a labeled snapshot still holds its base")
	}
}
