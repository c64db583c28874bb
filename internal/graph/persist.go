package graph

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"segugio/internal/dnsutil"
)

// Graph snapshot persistence: segugiod checkpoints its live behavior
// graph so an unclean death does not forget the day's machine-domain
// observations. Only the observation data (nodes, edges, resolved IPs)
// is serialized — labels are re-derived from the ground-truth sources on
// load, and e2LD annotations are recomputed from the suffix list, so a
// checkpoint can never pin stale intelligence.

// SnapshotFormatVersion is the current on-disk snapshot format. Files
// written by other versions are rejected with ErrSnapshotVersion.
const SnapshotFormatVersion = 1

// ErrSnapshotVersion marks a snapshot written by an incompatible format
// version.
var ErrSnapshotVersion = errors.New("graph: incompatible snapshot format version")

type snapshotWire struct {
	Version  int
	Name     string
	Day      int
	Machines []string
	Domains  []string
	// IPDomain/IPAddr are parallel: domain index -> one resolved address.
	IPDomain []int32
	IPAddr   []dnsutil.IPv4
	// EdgeOff/EdgeAdj are the machine-side CSR adjacency.
	EdgeOff []int32
	EdgeAdj []int32
}

// EncodeSnapshot writes g's observation data to w.
func EncodeSnapshot(w io.Writer, g *Graph) error {
	wire := snapshotWire{
		Version:  SnapshotFormatVersion,
		Name:     g.name,
		Day:      g.day,
		Machines: g.machineIDs,
		Domains:  g.domains,
	}
	// Adjacency is flattened through the accessor rather than the raw CSR
	// arrays: incremental snapshots keep part of their adjacency in the
	// overlay, which the base CSR alone does not see.
	nm := len(g.machineIDs)
	wire.EdgeOff = make([]int32, nm+1)
	wire.EdgeAdj = make([]int32, 0, g.NumEdges())
	for m := 0; m < nm; m++ {
		adj := g.DomainsOf(int32(m))
		wire.EdgeOff[m+1] = wire.EdgeOff[m] + int32(len(adj))
		wire.EdgeAdj = append(wire.EdgeAdj, adj...)
	}
	for d, ips := range g.domainIPs {
		for _, ip := range ips {
			wire.IPDomain = append(wire.IPDomain, int32(d))
			wire.IPAddr = append(wire.IPAddr, ip)
		}
	}
	return gob.NewEncoder(w).Encode(wire)
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot and rebuilds
// it as a Builder seeded with every recorded observation, ready for
// further streaming appends. The suffix list recomputes the e2LD
// annotations; labels are left for ApplyLabels at the next Snapshot.
func DecodeSnapshot(r io.Reader, suffixes *dnsutil.SuffixList) (*Builder, error) {
	var wire snapshotWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("graph: decode snapshot: %w", err)
	}
	if wire.Version != SnapshotFormatVersion {
		return nil, fmt.Errorf("%w: file is version %d, this build reads version %d",
			ErrSnapshotVersion, wire.Version, SnapshotFormatVersion)
	}
	nm, nd := len(wire.Machines), len(wire.Domains)
	if len(wire.EdgeOff) != nm+1 && !(nm == 0 && len(wire.EdgeOff) == 0) {
		return nil, fmt.Errorf("graph: decode snapshot: offsets length %d does not match %d machines", len(wire.EdgeOff), nm)
	}
	if len(wire.IPDomain) != len(wire.IPAddr) {
		return nil, fmt.Errorf("graph: decode snapshot: ip columns disagree (%d vs %d)", len(wire.IPDomain), len(wire.IPAddr))
	}

	b := NewBuilder(wire.Name, wire.Day, suffixes)
	// Interning machines and domains in wire order keeps the rebuilt
	// builder's indices aligned with the serialized adjacency.
	for _, id := range wire.Machines {
		b.Machine(id)
	}
	for _, name := range wire.Domains {
		b.Domain(name)
	}
	b.growDomains(nd)
	for m := 0; m < nm; m++ {
		lo, hi := wire.EdgeOff[m], wire.EdgeOff[m+1]
		if lo < 0 || hi < lo || int(hi) > len(wire.EdgeAdj) {
			return nil, fmt.Errorf("graph: decode snapshot: bad offsets for machine %d", m)
		}
		for _, d := range wire.EdgeAdj[lo:hi] {
			if d < 0 || int(d) >= nd {
				return nil, fmt.Errorf("graph: decode snapshot: edge to out-of-range domain %d", d)
			}
			// Recorded edges go through the pending buffer: the first
			// Snapshot sorts and deduplicates them into the base run, and
			// the domain-queried flags keep e2LD activity propagation from
			// re-reporting recovered domains as freshly queried.
			b.pending = append(b.pending, newEdge(int32(m), d))
			if !b.domainQueried[d] {
				b.domainQueried[d] = true
				b.e2ldQueried[b.viewE2LDID[d]] = true
			}
		}
	}
	for i, d := range wire.IPDomain {
		if d < 0 || int(d) >= nd {
			return nil, fmt.Errorf("graph: decode snapshot: address for out-of-range domain %d", d)
		}
		b.AddResolution(wire.Domains[d], wire.IPAddr[i])
	}
	return b, nil
}
