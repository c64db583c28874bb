package graph

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceFold is the fold mergePending replaced: sort the pending
// edges, drop in-batch repeats, drop edges already in base by a binary
// search each, and merge the survivors into base. It returns the new
// base run and the fresh edges in the order the fold reports them.
func referenceFold(base, pending []edge) (newBase, fresh []edge) {
	p := slices.Clone(pending)
	slices.Sort(p)
	p = slices.Compact(p)
	for _, e := range p {
		if _, ok := slices.BinarySearch(base, e); !ok {
			fresh = append(fresh, e)
		}
	}
	newBase = append(slices.Clone(base), fresh...)
	slices.Sort(newBase)
	return newBase, fresh
}

// foldBuilder is a builder holding only what mergePending reads: node
// counts (the radix sort's key widths), the base run and the pending
// buffer.
func foldBuilder(nm, nd int, base, pending []edge) *Builder {
	return &Builder{
		nm:      nm,
		nd:      nd,
		base:    slices.Clone(base),
		pending: slices.Clone(pending),
	}
}

// requireFold runs mergePending on base + pending and checks the base
// run, the fresh slice and its order against referenceFold.
func requireFold(t testing.TB, nm, nd int, base, pending []edge) {
	t.Helper()
	wantBase, wantFresh := referenceFold(base, pending)
	b := foldBuilder(nm, nd, base, pending)
	fresh := slices.Clone(b.mergePending())
	if !slices.Equal(fresh, wantFresh) {
		t.Fatalf("fresh: got %d edges, want %d (first diff at %d)", len(fresh), len(wantFresh), firstDiff(fresh, wantFresh))
	}
	if !slices.Equal(b.base, wantBase) {
		t.Fatalf("base: got %d edges, want %d (first diff at %d)", len(b.base), len(wantBase), firstDiff(b.base, wantBase))
	}
}

func firstDiff(a, b []edge) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// randomEdges draws n edges with machine ids below nm and domain ids
// below nd.
func randomEdges(rng *rand.Rand, n, nm, nd int) []edge {
	out := make([]edge, n)
	for i := range out {
		out[i] = newEdge(int32(rng.Intn(nm)), int32(rng.Intn(nd)))
	}
	return out
}

func sortedUnique(es []edge) []edge {
	es = slices.Clone(es)
	slices.Sort(es)
	return slices.Compact(es)
}

// TestMergePendingMatchesReference pins the radix-sorted, galloping fold
// to the sort-plus-binary-search fold it replaced.
func TestMergePendingMatchesReference(t *testing.T) {
	type fold struct {
		name          string
		nm, nd        int
		base, pending []edge
	}
	var cases []fold
	rng := rand.New(rand.NewSource(36))

	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		nm, nd := 1+r.Intn(5000), 1+r.Intn(20000)
		base := sortedUnique(randomEdges(r, r.Intn(20000), nm, nd))
		cases = append(cases, fold{
			name: fmt.Sprintf("random/seed=%d", seed), nm: nm, nd: nd,
			base: base, pending: randomEdges(r, r.Intn(40000), nm, nd),
		})
	}

	one, dups := []edge{newEdge(3, 7)}, make([]edge, 5000)
	for i := range dups {
		dups[i] = one[0]
	}
	cases = append(cases,
		fold{name: "all duplicates", nm: 10, nd: 10, pending: dups},
		fold{name: "all duplicates of base", nm: 10, nd: 10, base: one, pending: dups},
		fold{name: "empty", nm: 1, nd: 1},
	)

	base := sortedUnique(randomEdges(rng, 30000, 400, 3000))
	inside := make([]edge, 20000)
	for i := range inside {
		inside[i] = base[rng.Intn(len(base))]
	}
	cases = append(cases,
		fold{name: "pending inside base", nm: 400, nd: 3000, base: base, pending: inside},
		fold{name: "empty base", nm: 400, nd: 3000, pending: randomEdges(rng, 30000, 400, 3000)},
	)

	// One proxy machine queries 50k domains: a single machine digit, so
	// every machine pass is one bucket and the domain passes do the work.
	proxy := make([]edge, 50000)
	for d := range proxy {
		proxy[d] = newEdge(0, int32(d))
	}
	row := slices.Clone(proxy)
	rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
	cases = append(cases,
		fold{name: "proxy row/fresh", nm: 1, nd: 50000, pending: row},
		fold{name: "proxy row/half in base", nm: 1, nd: 60000, base: proxy[:25000], pending: append(row, newEdge(0, 59999))},
	)

	const wide = 1 << 20
	wideBase := sortedUnique(randomEdges(rng, 50000, wide, wide))
	wideBase = append(wideBase, newEdge(wide-1, wide-1))
	cases = append(cases, fold{
		name: "ids at 2^20", nm: wide, nd: wide, base: wideBase,
		pending: append(randomEdges(rng, 60000, wide, wide), newEdge(wide-1, wide-1), newEdge(wide-1, 0), newEdge(0, wide-1)),
	})

	for _, n := range []int{radixMin - 1, radixMin, radixMin + 1} {
		cases = append(cases, fold{
			name: fmt.Sprintf("cutoff/n=%d", n), nm: 50, nd: 200,
			base: sortedUnique(randomEdges(rng, 300, 50, 200)), pending: randomEdges(rng, n, 50, 200),
		})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			requireFold(t, c.nm, c.nd, c.base, c.pending)
		})
	}
}

// FuzzMergePending checks mergePending against referenceFold on
// arbitrary inputs: the first two bytes size the id spaces, and each
// following 5-byte record is one edge — a flag byte choosing base or
// pending, then 16-bit machine and domain ids, widened by the size bytes
// up to 2^20 to reach the multi-digit radix passes.
func FuzzMergePending(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 1, 0, 1, 0, 2, 2, 0, 3, 0, 4})
	f.Add([]byte{5, 9, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mShift, dShift := data[0]%5, data[1]%5
		nm, nd := 1<<16<<mShift, 1<<16<<dShift
		var base, pending []edge
		for rec := data[2:]; len(rec) >= 5; rec = rec[5:] {
			m := int32(binary.LittleEndian.Uint16(rec[1:])) << mShift
			d := int32(binary.LittleEndian.Uint16(rec[3:])) << dShift
			if e := newEdge(m, d); rec[0]%2 == 0 {
				base = append(base, e)
			} else {
				pending = append(pending, e)
			}
		}
		requireFold(t, nm, nd, sortedUnique(base), pending)
	})
}
