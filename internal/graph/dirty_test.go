package graph

import (
	"reflect"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/intel"
)

// dirtyBase populates the shared baseline for the relabel-set table:
// three querying machines, domains across several e2LDs, and two
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

// TestDirtySet pins the per-snapshot relabel set, the one dirty set the
// builder keeps: against the last labeled snapshot, exactly the machines
// with fresh edges and the machines interned since — no over-reporting
// for duplicate observations or address-only changes. The incremental
// relabel over that set must label every node as a full relabel of the
// same graph does.
func TestDirtySet(t *testing.T) {
	cases := []struct {
		name string
		// mutate runs between the labeled baseline and the measured one.
		mutate func(b *Builder)
		want   []string
	}{
		{name: "no changes", mutate: func(b *Builder) {}, want: []string{}},
		{
			name:   "duplicate query dedups to nothing",
			mutate: func(b *Builder) { b.AddQuery("m1", "a.one.com") },
			want:   []string{},
		},
		{
			name:   "duplicate resolution dedups to nothing",
			mutate: func(b *Builder) { b.AddResolution("c.three.com", dnsutil.IPv4(0x01010101)) },
			want:   []string{},
		},
		{
			name:   "new edge between existing nodes",
			mutate: func(b *Builder) { b.AddQuery("m2", "c.three.com") },
			want:   []string{"m2"},
		},
		{
			name:   "new domain under a new e2LD",
			mutate: func(b *Builder) { b.AddQuery("m1", "x.new.net") },
			want:   []string{"m1"},
		},
		{
			name:   "new domain under an already-queried e2LD",
			mutate: func(b *Builder) { b.AddQuery("m9", "d.three.com") },
			want:   []string{"m9"},
		},
		{
			name:   "first query of a resolution-only e2LD",
			mutate: func(b *Builder) { b.AddQuery("m1", "r1.shared.org") },
			want:   []string{"m1"},
		},
		{
			name:   "new resolution on an existing domain",
			mutate: func(b *Builder) { b.AddResolution("c.three.com", dnsutil.IPv4(0x0a0b0c0d)) },
			want:   []string{},
		},
		{
			name:   "resolution-only new domain",
			mutate: func(b *Builder) { b.AddResolution("y.four.org", dnsutil.IPv4(0x04040404)) },
			want:   []string{},
		},
	}
	src := dirtySources()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("test", 7, dnsutil.DefaultSuffixList())
			dirtyBase(b)
			base := b.Snapshot()
			if _, ok := base.RelabelMachines(); ok {
				t.Fatal("first snapshot has a relabel baseline")
			}
			base.ApplyLabels(src)
			b.MarkLabeled(base)

			tc.mutate(b)
			g := b.Snapshot()
			ids, ok := g.RelabelMachines()
			if !ok {
				t.Fatal("snapshot after a labeled one has no relabel baseline")
			}
			got := []string{}
			for _, m := range ids {
				got = append(got, g.MachineID(m))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("relabel set = %v, want %v", got, tc.want)
			}

			g.ApplyLabels(src)
			ref := NewBuilder("test", 7, dnsutil.DefaultSuffixList())
			dirtyBase(ref)
			tc.mutate(ref)
			full := ref.Build()
			full.ApplyLabels(src)
			for m := int32(0); int(m) < full.NumMachines(); m++ {
				id := full.MachineID(m)
				gm, _ := g.MachineIndex(id)
				if g.MachineLabel(gm) != full.MachineLabel(m) {
					t.Fatalf("machine %s: incremental label %v, full relabel %v", id, g.MachineLabel(gm), full.MachineLabel(m))
				}
			}
			for d := int32(0); int(d) < full.NumDomains(); d++ {
				name := full.DomainName(d)
				gd, _ := g.DomainIndex(name)
				if g.DomainLabel(gd) != full.DomainLabel(d) {
					t.Fatalf("domain %s: incremental label %v, full relabel %v", name, g.DomainLabel(gd), full.DomainLabel(d))
				}
			}
		})
	}
}

// TestDirtySetEpochRotation pins the rotation edge case of the relabel
// set: a new day means a new Builder, and a labeled snapshot of the old
// day must not become its label baseline (same name, different day), so
// the new day's snapshots relabel in full.
func TestDirtySetEpochRotation(t *testing.T) {
	day7 := NewBuilder("test", 7, dnsutil.DefaultSuffixList())
	day7.AddQuery("m1", "a.one.com")
	day7.AddQuery("m2", "b.two.com")
	prev := day7.Snapshot()
	prev.ApplyLabels(LabelSources{AsOf: 7})

	day8 := NewBuilder("test", 8, dnsutil.DefaultSuffixList())
	day8.AddQuery("m1", "a.one.com")
	day8.Snapshot()
	day8.MarkLabeled(prev)
	day8.AddQuery("m2", "b.two.com")
	g := day8.Snapshot()
	if _, ok := g.RelabelMachines(); ok || g.labelBase != nil {
		t.Fatal("rotated builder accepted a label baseline from the previous day")
	}
}
