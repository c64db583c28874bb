package graph

import (
	"reflect"
	"testing"

	"segugio/internal/dnsutil"
)

// dirtyBase populates the shared baseline for the dirty-set table:
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

// TestDirtySet pins down the per-snapshot dirty set: exactly the domains
// whose adjacency, labels, or IP annotations can differ from the
// previous snapshot — the edge's domain, every domain of a machine with
// a fresh edge (its infected/benign fractions shift), newly interned
// domains, domains gaining a resolved address, and all domains of an
// e2LD that transitions to queried. No over-reporting: untouched
// siblings and duplicate observations contribute nothing.
func TestDirtySet(t *testing.T) {
	cases := []struct {
		name string
		// mutate runs between the baseline snapshot and the measured one.
		mutate    func(b *Builder)
		wantExact bool
		want      []string
	}{
		{
			name:      "no changes",
			mutate:    func(b *Builder) {},
			wantExact: true,
			want:      []string{},
		},
		{
			name:      "duplicate query dedups to nothing",
			mutate:    func(b *Builder) { b.AddQuery("m1", "a.one.com") },
			wantExact: true,
			want:      []string{},
		},
		{
			name:      "duplicate resolution dedups to nothing",
			mutate:    func(b *Builder) { b.AddResolution("c.three.com", dnsutil.IPv4(0x01010101)) },
			wantExact: true,
			want:      []string{},
		},
		{
			name:   "new edge between existing nodes",
			mutate: func(b *Builder) { b.AddQuery("m2", "a.one.com") },
			// a.one.com gains a machine; every domain m2 queries shifts.
			wantExact: true,
			want:      []string{"a.one.com", "b.two.com"},
		},
		{
			name:      "new domain under a new e2LD",
			mutate:    func(b *Builder) { b.AddQuery("m1", "x.new.net") },
			wantExact: true,
			want:      []string{"a.one.com", "b.two.com", "x.new.net"},
		},
		{
			name:   "new domain under an already-queried e2LD",
			mutate: func(b *Builder) { b.AddQuery("m9", "d.three.com") },
			// m9 is new and queries only d.three.com; sibling c.three.com
			// is untouched (its e2LD was already queried).
			wantExact: true,
			want:      []string{"d.three.com"},
		},
		{
			name:   "first query of a resolution-only e2LD",
			mutate: func(b *Builder) { b.AddQuery("m1", "r1.shared.org") },
			// shared.org transitions to queried: both its domains become
			// dirty, plus everything m1 queries.
			wantExact: true,
			want:      []string{"a.one.com", "b.two.com", "r1.shared.org", "r2.shared.org"},
		},
		{
			name:      "new resolution on an existing domain",
			mutate:    func(b *Builder) { b.AddResolution("c.three.com", dnsutil.IPv4(0x0a0b0c0d)) },
			wantExact: true,
			want:      []string{"c.three.com"},
		},
		{
			name:      "resolution-only new domain",
			mutate:    func(b *Builder) { b.AddResolution("y.four.org", dnsutil.IPv4(0x04040404)) },
			wantExact: true,
			want:      []string{"y.four.org"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("test", 7, dnsutil.DefaultSuffixList())
			dirtyBase(b)
			if _, exact := dirtyNames(b.Snapshot()); exact {
				t.Fatal("first snapshot must be inexact (no baseline to delta against)")
			}
			tc.mutate(b)
			g := b.Snapshot()
			got, exact := dirtyNames(g)
			if exact != tc.wantExact {
				t.Fatalf("exact = %v, want %v", exact, tc.wantExact)
			}
			if got == nil {
				got = []string{}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("dirty = %v, want %v", got, tc.want)
			}

			// The set resets: an idle follow-up snapshot reports nothing.
			if names, exact := dirtyNames(b.Snapshot()); !exact || len(names) != 0 {
				t.Fatalf("idle snapshot after mutation: dirty = %v (exact=%v), want exact empty", names, exact)
			}
		})
	}
}

// TestDirtySetEpochRotation pins the rotation edge case: a new day means
// a new Builder, and its first snapshot must declare itself inexact so
// consumers drop every cached per-domain result from the previous epoch.
func TestDirtySetEpochRotation(t *testing.T) {
	day7 := NewBuilder("test", 7, dnsutil.DefaultSuffixList())
	dirtyBase(day7)
	day7.Snapshot()
	day7.AddQuery("m1", "x.new.net")
	if _, exact := dirtyNames(day7.Snapshot()); !exact {
		t.Fatal("pre-rotation snapshot should be exact")
	}

	day8 := NewBuilder("test", 8, dnsutil.DefaultSuffixList())
	day8.AddQuery("m1", "a.one.com")
	g := day8.Snapshot()
	if names, exact := dirtyNames(g); exact || names != nil {
		t.Fatalf("first post-rotation snapshot: dirty = %v (exact=%v), want inexact nil", names, exact)
	}

	// MarkLabeled from the old epoch must not leak a label baseline into
	// the new builder (same name, different day).
	prev := day7.Snapshot()
	prev.ApplyLabels(LabelSources{AsOf: 7})
	day8.MarkLabeled(prev)
	day8.AddQuery("m2", "b.two.com")
	g2 := day8.Snapshot()
	if g2.labelBase != nil {
		t.Fatal("rotated builder accepted a label baseline from the previous day")
	}
}

// dirtyNames is g's dirty set by name, as its Delta names it.
func dirtyNames(g *Graph) ([]string, bool) {
	d := g.DeltaOf(g.DirtyDomains())
	return d.Domains, d.Exact
}
