// Package graph implements Segugio's machine-domain bipartite behavior
// graph (paper Section II-A): nodes are ISP user machines and queried
// domain names; an edge connects a machine to a domain it queried during
// the observation window. Domain nodes carry annotations (resolved IPs,
// effective 2LD); both node kinds carry labels seeded from blacklists and
// whitelists. The package also implements the conservative pruning rules
// R1-R4 with the paper's two exceptions.
//
// The adjacency is stored in compressed sparse row (CSR) form in both
// directions, because feature measurement iterates machines-of-domain and
// labeling iterates domains-of-machine over graphs with millions of edges.
// Incremental snapshots share the base CSR with their Builder and carry a
// per-node overlay for nodes whose edges changed since the last
// compaction; derived graphs (Prune, FilterProbers) are always plain CSR.
package graph

import (
	"sync/atomic"

	"segugio/internal/dnsutil"
)

// Label is the ground-truth state of a node. The zero value is
// LabelUnknown on purpose: a freshly observed node is unknown until a
// ground-truth source says otherwise.
type Label uint8

// Label values.
const (
	// LabelUnknown nodes are the classification targets.
	LabelUnknown Label = iota
	// LabelBenign marks whitelisted domains and machines that query only
	// whitelisted domains.
	LabelBenign
	// LabelMalware marks blacklisted C&C domains and machines that query
	// at least one of them.
	LabelMalware
)

// String renders the label for logs and reports.
func (l Label) String() string {
	switch l {
	case LabelBenign:
		return "benign"
	case LabelMalware:
		return "malware"
	default:
		return "unknown"
	}
}

// Delta is what ingest.Ingester.SnapshotSince returns beside its graph.
// Every classify pass is cold, so it is always the zero Delta (not exact,
// no domains); it keeps the shape the end-to-end benchmark harness reads
// until that harness stops reading it.
type Delta struct {
	Exact   bool
	Domains []string
}

// Graph is an immutable bipartite behavior graph for one observation day.
// Build one with a Builder, then call ApplyLabels and Prune. A returned
// snapshot is immutable forever: the Builder only appends past the
// prefixes a snapshot can see.
type Graph struct {
	name string
	day  int

	machineIDs []string
	domains    []string
	domainE2LD []string
	// domainE2LDID[d] is domainE2LD[d] as an id below numE2LDs: two domains
	// of one graph share an id exactly when they share an e2LD. Ids are the
	// Builder's (dense, stable along its lineage); a derived graph keeps
	// its source's.
	domainE2LDID []int32
	numE2LDs     int
	domainIPs    [][]dnsutil.IPv4

	// Base CSR adjacency, machine -> domains and domain -> machines. For
	// incremental snapshots it covers the first csrNM machines / csrND
	// domains as of the Builder's last compaction; nodes touched since
	// carry their full adjacency in the overlay below.
	mOff []int32
	mAdj []int32
	dOff []int32
	dAdj []int32

	csrNM, csrND int
	// Overlay: ovM[m] / ovD[d] is -1 (read the base CSR row; nodes at or
	// past csrNM/csrND with -1 have no edges) or an index into
	// ovMAdj/ovDAdj holding the node's full adjacency. nil for plain-CSR
	// graphs (batch builds, pruned graphs).
	ovM, ovD       []int32
	ovMAdj, ovDAdj [][]int32
	numEdges       int

	// Labels are allocated lazily by ApplyLabels; unlabeled graphs report
	// LabelUnknown and zero counts.
	domainLabel  []Label
	machineLabel []Label
	// Per-machine label-derivation counts, maintained by ApplyLabels:
	// how many of the machine's queried domains are labeled malware, and
	// how many are labeled anything other than benign. Feature measurement
	// uses them to re-derive machine labels with one domain's label hidden
	// in O(1) (paper Figure 5).
	cntMalware   []int32
	cntNonBenign []int32

	// machineIndex/domainIndex are the Builder's published (frozen) intern
	// maps, shared across snapshots; machineExtra/domainExtra cover nodes
	// interned after the last publish. Either may name nodes interned after
	// this snapshot was taken; lookups bound ids by the node counts.
	domainIndex  map[string]int32
	machineIndex map[string]int32
	domainExtra  map[string]int32
	machineExtra map[string]int32

	// A graph derived from another (Prune, FilterProbers,
	// PrunePlan.Materialize) has no index of its own: a name resolves
	// through derivedFrom's, then through the remap tables (source id ->
	// id here, -1 for a dropped node). All nil for a Builder's graphs.
	derivedFrom               *Graph
	machineRemap, domainRemap []int32

	// labelSrc is what ApplyLabels last labeled the graph from; labeled
	// is stored last by ApplyLabels, so a Builder that reads it set may
	// use the graph as a later snapshot's labelBase.
	labelSrc LabelSources
	labeled  atomic.Bool
	stats    LabelStats
	// labelBase is the Builder's newest labeled snapshot when this one
	// froze, held only until ApplyLabels takes it.
	labelBase atomic.Pointer[Graph]
}

// Name returns the network name the graph was observed in.
func (g *Graph) Name() string { return g.name }

// Day returns the observation day.
func (g *Graph) Day() int { return g.day }

// NumMachines reports the machine-node count.
func (g *Graph) NumMachines() int { return len(g.machineIDs) }

// NumDomains reports the domain-node count.
func (g *Graph) NumDomains() int { return len(g.domains) }

// NumEdges reports the edge count.
func (g *Graph) NumEdges() int {
	if g.numEdges == 0 {
		return len(g.mAdj)
	}
	return g.numEdges
}

// MachineID returns the identifier of machine node m.
func (g *Graph) MachineID(m int32) string { return g.machineIDs[m] }

// DomainName returns the name of domain node d.
func (g *Graph) DomainName(d int32) string { return g.domains[d] }

// DomainE2LD returns the effective second-level domain of node d.
func (g *Graph) DomainE2LD(d int32) string { return g.domainE2LD[d] }

// DomainIPs returns the addresses node d resolved to during the
// observation window. The returned slice must not be modified.
func (g *Graph) DomainIPs(d int32) []dnsutil.IPv4 { return g.domainIPs[d] }

// DomainIndex returns the node index for a domain name.
func (g *Graph) DomainIndex(domain string) (int32, bool) {
	if g.derivedFrom != nil {
		if d, ok := g.derivedFrom.DomainIndex(domain); ok && g.domainRemap[d] >= 0 {
			return g.domainRemap[d], true
		}
		return 0, false
	}
	// The Builder's maps may name nodes interned after this snapshot.
	i, ok := g.domainIndex[domain]
	if !ok {
		i, ok = g.domainExtra[domain]
	}
	return i, ok && int(i) < len(g.domains)
}

// MachineIndex returns the node index for a machine identifier.
func (g *Graph) MachineIndex(id string) (int32, bool) {
	if g.derivedFrom != nil {
		if m, ok := g.derivedFrom.MachineIndex(id); ok && g.machineRemap[m] >= 0 {
			return g.machineRemap[m], true
		}
		return 0, false
	}
	i, ok := g.machineIndex[id]
	if !ok {
		i, ok = g.machineExtra[id]
	}
	return i, ok && int(i) < len(g.machineIDs)
}

// DomainsOf returns the domain nodes queried by machine m. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) DomainsOf(m int32) []int32 {
	if g.ovM != nil {
		if slot := g.ovM[m]; slot >= 0 {
			return g.ovMAdj[slot]
		}
		if int(m) >= g.csrNM {
			return nil
		}
	}
	return g.mAdj[g.mOff[m]:g.mOff[m+1]]
}

// MachinesOf returns the machine nodes that queried domain d. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) MachinesOf(d int32) []int32 {
	if g.ovD != nil {
		if slot := g.ovD[d]; slot >= 0 {
			return g.ovDAdj[slot]
		}
		if int(d) >= g.csrND {
			return nil
		}
	}
	return g.dAdj[g.dOff[d]:g.dOff[d+1]]
}

// MachineDegree returns how many distinct domains machine m queried.
func (g *Graph) MachineDegree(m int32) int { return len(g.DomainsOf(m)) }

// DomainDegree returns how many distinct machines queried domain d.
func (g *Graph) DomainDegree(d int32) int { return len(g.MachinesOf(d)) }

// DomainLabel returns the label of domain node d.
func (g *Graph) DomainLabel(d int32) Label {
	if g.domainLabel == nil {
		return LabelUnknown
	}
	return g.domainLabel[d]
}

// MachineLabel returns the label of machine node m.
func (g *Graph) MachineLabel(m int32) Label {
	if g.machineLabel == nil {
		return LabelUnknown
	}
	return g.machineLabel[m]
}

// MachineMalwareCount reports how many malware-labeled domains machine m
// queries.
func (g *Graph) MachineMalwareCount(m int32) int {
	if g.cntMalware == nil {
		return 0
	}
	return int(g.cntMalware[m])
}

// MachineNonBenignCount reports how many of machine m's queried domains
// are labeled anything other than benign.
func (g *Graph) MachineNonBenignCount(m int32) int {
	if g.cntNonBenign == nil {
		return 0
	}
	return int(g.cntNonBenign[m])
}

// LabeledAsOf returns the ground-truth cutoff day passed to ApplyLabels.
func (g *Graph) LabeledAsOf() int { return g.labelSrc.AsOf }

// Labeled reports whether ApplyLabels has run.
func (g *Graph) Labeled() bool { return g.labeled.Load() }
