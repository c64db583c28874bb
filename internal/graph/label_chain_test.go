//go:build go1.24

package graph

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"segugio/internal/dnsutil"
)

// TestLabelBaseHoldsNoChain snapshots one builder many times, once
// labeling every snapshot and once labeling none. Only the builder's
// newest snapshot and that snapshot's label base may outlive a
// collection: a labeled snapshot lets go of its base, and the builder
// keeps no older one.
func TestLabelBaseHoldsNoChain(t *testing.T) {
	const snapshots = 40
	for _, label := range []bool{true, false} {
		t.Run(fmt.Sprintf("labeled=%v", label), func(t *testing.T) {
			src := dirtySources()
			b := NewBuilder("chain", 7, dnsutil.DefaultSuffixList())
			var snaps []weak.Pointer[Graph]
			for i := 0; i < snapshots; i++ {
				b.AddQuery(fmt.Sprintf("m%d", i%7), fmt.Sprintf("d%d.example.com", i))
				g := b.Snapshot()
				if label {
					g.ApplyLabels(src)
				}
				snaps = append(snaps, weak.Make(g))
			}
			runtime.GC()
			kept := map[*Graph]bool{b.lastSnap: true, b.lastSnap.labelBase.Load(): true}
			for i, w := range snaps {
				if g := w.Value(); g != nil && !kept[g] {
					t.Fatalf("snapshot %d of %d outlived a collection", i, snapshots)
				}
			}
			runtime.KeepAlive(b)
		})
	}
}
