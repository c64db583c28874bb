package graph

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"segugio/internal/dnsutil"
)

// PruneConfig parameterizes the conservative filtering rules of paper
// Section II-A2.
type PruneConfig struct {
	// MaxInactiveDegree is R1's threshold: machines querying this many or
	// fewer domains are considered inactive and dropped (paper: 5), unless
	// they are malware-labeled (the R1 exception keeps infected machines
	// whose only traffic is a short C&C heartbeat).
	MaxInactiveDegree int
	// ProxyPercentile is R2's threshold: machines whose degree reaches
	// this percentile of the machine-degree distribution are treated as
	// proxies/forwarders and dropped (paper: 99.99).
	ProxyPercentile float64
	// MinDomainMachines is R3's threshold: domains queried by fewer
	// distinct machines are dropped (paper: 2, i.e. single-machine domains
	// go), unless they are malware-labeled (the R3 exception).
	MinDomainMachines int
	// MaxE2LDMachineFraction is R4's threshold: domains whose effective
	// 2LD is queried by at least this fraction of all machines are too
	// popular to be malware control and are dropped (paper: 1/3).
	MaxE2LDMachineFraction float64
}

// DefaultPruneConfig returns the paper's settings.
func DefaultPruneConfig() PruneConfig {
	return PruneConfig{
		MaxInactiveDegree:      5,
		ProxyPercentile:        99.99,
		MinDomainMachines:      2,
		MaxE2LDMachineFraction: 1.0 / 3.0,
	}
}

// PruneStats reports the reduction achieved by pruning, matching the
// aggregate numbers the paper gives in Section III.
type PruneStats struct {
	MachinesBefore, MachinesAfter int
	DomainsBefore, DomainsAfter   int
	EdgesBefore, EdgesAfter       int
	// ThetaD is the resolved R2 degree threshold.
	ThetaD int
	// ThetaM is the resolved R4 machine-count threshold.
	ThetaM int
	// Dropped counts by rule (a node dropped by several rules counts for
	// the first one that matched, in R2, R1, R4, R3 order).
	DroppedR1, DroppedR2, DroppedR3, DroppedR4 int
}

// MachineReduction returns the fractional machine-node reduction.
func (s PruneStats) MachineReduction() float64 {
	return reduction(s.MachinesBefore, s.MachinesAfter)
}

// DomainReduction returns the fractional domain-node reduction.
func (s PruneStats) DomainReduction() float64 {
	return reduction(s.DomainsBefore, s.DomainsAfter)
}

// EdgeReduction returns the fractional edge reduction.
func (s PruneStats) EdgeReduction() float64 {
	return reduction(s.EdgesBefore, s.EdgesAfter)
}

func reduction(before, after int) float64 {
	if before == 0 {
		return 0
	}
	return float64(before-after) / float64(before)
}

// ErrNotLabeled is returned when pruning an unlabeled graph: the R1/R3
// exceptions depend on node labels.
var ErrNotLabeled = errors.New("graph: ApplyLabels must run before Prune")

// fullScans counts O(graph) scans of the prune pipeline (Prune,
// NewPrunePlan, FindProbers) process-wide. Tests assert against it that a
// classify session prepares a snapshot once and that a lookup the last
// pass answers scans nothing.
var fullScans atomic.Uint64

// FullGraphScans reports how many full-graph prune-pipeline scans have
// run in this process. It is a test and diagnostics hook, not a metric.
func FullGraphScans() uint64 { return fullScans.Load() }

// Prune applies rules R1-R4 to a labeled graph and materializes a new,
// smaller graph. Rules are evaluated against the input graph's degrees
// (one pass, not to fixpoint), mirroring the paper's one-shot filtering.
// The scans are sharded across GOMAXPROCS workers.
func Prune(g *Graph, cfg PruneConfig) (*Graph, PruneStats, error) {
	fullScans.Add(1)
	plan, err := newPrunePlan(g, nil, cfg, false)
	if err != nil {
		return nil, PruneStats{}, err
	}
	pruned := plan.Materialize()
	return pruned, plan.stats, nil
}

// PrunePlan holds the prober-filter and R1-R4 keep decisions for one
// graph snapshot without materializing the pruned subgraph: per-node keep
// bits, the resolved global thresholds (thetaD, thetaM), the complete
// prune statistics, and each kept machine's label counts over the kept
// domains. Together these answer every question the pruned graph would
// (which nodes it holds, a kept machine's label with one domain hidden),
// so a classify pass measures features on the snapshot through the plan.
// Materialize builds the pruned graph for callers that want one.
type PrunePlan struct {
	base         *Graph
	disablePrune bool

	keepM, keepD []bool
	// cntMalware/cntNonBenign[m] are kept machine m's malware and
	// non-benign queried domains among the kept ones: its label counts in
	// the pruned graph. They alias base's counts when no domain is dropped.
	cntMalware, cntNonBenign []int32
	probers                  []int32
	probersRemoved           []string
	stats                    PruneStats
}

// NewPrunePlan computes keep decisions for g in one combined pass:
// prober filtering (when prober is non-nil) composed with rules R1-R4
// (unless disablePrune). The resulting keep sets, thresholds, and stats
// are identical to running FilterProbers followed by Prune, but the
// graph is scanned once and nothing is materialized.
func NewPrunePlan(g *Graph, prober *ProberConfig, cfg PruneConfig, disablePrune bool) (*PrunePlan, error) {
	fullScans.Add(1)
	return newPrunePlan(g, prober, cfg, disablePrune)
}

func newPrunePlan(g *Graph, prober *ProberConfig, cfg PruneConfig, disablePrune bool) (*PrunePlan, error) {
	if !g.Labeled() {
		return nil, ErrNotLabeled
	}
	p := &PrunePlan{base: g, disablePrune: disablePrune}
	nm, nd := g.NumMachines(), g.NumDomains()
	p.keepM = make([]bool, nm)
	p.keepD = make([]bool, nd)

	// Prober mask first: removed machines are invisible to every
	// subsequent threshold, exactly as if FilterProbers had materialized.
	eligible := p.keepM // reused as the "not a prober" mask
	if prober != nil {
		pc := normalizeProberConfig(*prober)
		shards := shardedInt32s(nm, func(lo, hi int, out *[]int32) {
			for m := lo; m < hi; m++ {
				if machineIsProber(g, int32(m), pc) {
					*out = append(*out, int32(m))
				} else {
					eligible[m] = true
				}
			}
		})
		for _, s := range shards {
			p.probers = append(p.probers, s...)
		}
		for _, m := range p.probers {
			p.probersRemoved = append(p.probersRemoved, g.machineIDs[m])
		}
	} else {
		for m := range eligible {
			eligible[m] = true
		}
	}

	if disablePrune {
		// Every domain stays, so a machine's counts are the graph's own.
		for d := range p.keepD {
			p.keepD[d] = true
		}
		p.cntMalware, p.cntNonBenign = g.cntMalware, g.cntNonBenign
		return p, nil
	}

	stats := PruneStats{
		MachinesBefore: nm - len(p.probers),
		DomainsBefore:  nd,
	}

	thetaD := degreePercentileMasked(g, cfg.ProxyPercentile, maskOrNil(eligible, len(p.probers)))
	stats.ThetaD = thetaD
	thetaM := thetaMFor(cfg, stats.MachinesBefore)
	stats.ThetaM = thetaM

	// Machine rules R1/R2, sharded. Each shard accumulates its own drop
	// counts and the pre-prune edge total (edges incident to non-prober
	// machines, matching the prober-filtered graph's edge count).
	type mShard struct{ r1, r2, edges int }
	mRes := make([]mShard, shardCount(nm))
	parallelShards(nm, func(shard, lo, hi int) {
		var s mShard
		for m := lo; m < hi; m++ {
			if !eligible[m] {
				continue
			}
			deg := g.MachineDegree(int32(m))
			s.edges += deg
			switch {
			case deg >= thetaD:
				s.r2++ // R2: proxy/forwarder
				p.keepM[m] = false
			case deg <= cfg.MaxInactiveDegree && g.machineLabel[m] != LabelMalware:
				s.r1++ // R1: inactive (exception: infected machines stay)
				p.keepM[m] = false
			default:
				p.keepM[m] = true
			}
		}
		mRes[shard] = s
	})
	for _, s := range mRes {
		stats.DroppedR1 += s.r1
		stats.DroppedR2 += s.r2
		stats.EdgesBefore += s.edges
	}
	stats.MachinesAfter = stats.MachinesBefore - stats.DroppedR1 - stats.DroppedR2

	// Domain rules run against the machine-filtered graph, so R3's
	// "queried by only one machine" means one *surviving* machine — the
	// pruned graph never contains non-malware domains with a single
	// querying machine.
	deg := p.keptDegrees()
	popular := p.popularE2LDs(deg, thetaM)
	type dShard struct{ r3, r4, kept int }
	dRes := make([]dShard, shardCount(nd))
	parallelShards(nd, func(shard, lo, hi int) {
		var s dShard
		for d := lo; d < hi; d++ {
			switch {
			case popular[g.domainE2LDID[d]]:
				s.r4++ // R4: too popular to be malware control
			case int(deg[d]) < cfg.MinDomainMachines && g.domainLabel[d] != LabelMalware:
				s.r3++ // R3: single-machine domain (exception: known malware stays)
			default:
				p.keepD[d] = true
				s.kept++
			}
		}
		dRes[shard] = s
	})
	for _, s := range dRes {
		stats.DroppedR3 += s.r3
		stats.DroppedR4 += s.r4
		stats.DomainsAfter += s.kept
	}
	stats.EdgesAfter = p.countKeptLabels(deg)
	p.stats = stats
	return p, nil
}

// keptDegrees returns, per domain, how many kept machines query it (R3's
// degree): its degree, less the dropped machines that query it. Dropped
// machines are the inactive, the proxies and the probers, whose rows are
// a sliver of the graph's edges.
func (p *PrunePlan) keptDegrees() []int32 {
	g := p.base
	deg := make([]int32, g.NumDomains())
	parallelFor(len(deg), func(lo, hi int) {
		for d := lo; d < hi; d++ {
			deg[d] = int32(g.DomainDegree(int32(d)))
		}
	})
	for m, keep := range p.keepM {
		if !keep {
			for _, d := range g.DomainsOf(int32(m)) {
				deg[d]--
			}
		}
	}
	return deg
}

// popularE2LDs marks the e2LDs R4 drops: those queried by at least
// thetaM distinct kept machines. The sum of an e2LD's domains' kept
// degrees bounds that count from above, so only the e2LDs whose sum
// reaches thetaM are counted exactly — a handful of popular zones (≈ 29 %
// of an isp-50k day's edges under 14 of 34k e2LDs) — by walking their
// domains' machine rows with a stamp per machine.
func (p *PrunePlan) popularE2LDs(deg []int32, thetaM int) []bool {
	g := p.base
	bound := make([]int, g.numE2LDs)
	for d, e := range g.domainE2LDID {
		bound[e] += int(deg[d])
	}
	members := map[int32][]int32{}
	for d, e := range g.domainE2LDID {
		if bound[e] >= thetaM {
			members[e] = append(members[e], int32(d))
		}
	}
	popular := make([]bool, g.numE2LDs)
	stamp := make([]int32, g.NumMachines())
	cur := int32(0)
	for e, domains := range members {
		cur++
		n := 0
		for _, d := range domains {
			for _, m := range g.MachinesOf(d) {
				if p.keepM[m] && stamp[m] != cur {
					stamp[m] = cur
					n++
				}
			}
		}
		popular[e] = n >= thetaM
	}
	return popular
}

// countKeptLabels fills each kept machine's label counts over the kept
// domains — the graph's own counts, less what the dropped malware- and
// unknown-labeled domains contribute — and returns the kept edge count:
// the kept machines' degrees, less the dropped domains' kept degrees.
// Only dropped non-benign domains' rows are read.
func (p *PrunePlan) countKeptLabels(deg []int32) int {
	g := p.base
	p.cntMalware, p.cntNonBenign = slices.Clone(g.cntMalware), slices.Clone(g.cntNonBenign)
	edges := 0
	for m, keep := range p.keepM {
		if keep {
			edges += g.MachineDegree(int32(m))
		}
	}
	for d, keep := range p.keepD {
		if keep {
			continue
		}
		edges -= int(deg[d])
		label := g.domainLabel[d]
		if label == LabelBenign {
			continue
		}
		for _, m := range g.MachinesOf(int32(d)) {
			if label == LabelMalware {
				p.cntMalware[m]--
			}
			p.cntNonBenign[m]--
		}
	}
	return edges
}

// maskOrNil returns nil when every machine is eligible, letting the
// percentile scan skip the mask check.
func maskOrNil(eligible []bool, removed int) []bool {
	if removed == 0 {
		return nil
	}
	return eligible
}

// thetaMFor resolves R4's machine-count threshold for a machine
// population of n.
func thetaMFor(cfg PruneConfig, n int) int {
	t := int(math.Ceil(cfg.MaxE2LDMachineFraction * float64(n)))
	if t < 1 {
		t = 1
	}
	return t
}

// Materialize builds the pruned graph the plan describes. The result is
// byte-identical to FilterProbers + Prune on the plan's base graph.
func (p *PrunePlan) Materialize() *Graph {
	if p.disablePrune && len(p.probers) == 0 {
		return p.base
	}
	return materialize(p.base, p.keepM, p.keepD)
}

// Graph returns the snapshot the plan was computed on.
func (p *PrunePlan) Graph() *Graph { return p.base }

// Stats returns the plan's prune statistics; a plan with pruning
// disabled reports none.
func (p *PrunePlan) Stats() PruneStats { return p.stats }

// ProbersRemoved lists the machine identifiers the prober filter
// removed, in node order.
func (p *PrunePlan) ProbersRemoved() []string { return p.probersRemoved }

// KeepsMachine reports whether machine node m survives the plan.
func (p *PrunePlan) KeepsMachine(m int32) bool { return p.keepM[m] }

// KeepsDomain reports whether domain node d survives the plan.
func (p *PrunePlan) KeepsDomain(d int32) bool { return p.keepD[d] }

// MachineLabelHiding is Graph.MachineLabelHiding on the pruned graph:
// kept machine m's label with domain d's withheld, derived from its
// queried domains that survive the plan. m must be a kept machine that
// queries the kept domain d.
func (p *PrunePlan) MachineLabelHiding(m, d int32) Label {
	return labelHiding(p.cntMalware[m], p.cntNonBenign[m], p.base.domainLabel[d])
}

// DomainsWithLabel returns the kept domains carrying the label, in node
// order: Graph.DomainsWithLabel on the pruned graph, as base node ids.
func (p *PrunePlan) DomainsWithLabel(l Label) []int32 { return p.base.domainsWithLabel(l, p.keepD) }

// degHistCap bounds the degree histogram the percentile scan uses;
// degrees at or above it (rare proxies) fall into a sorted overflow
// list.
const degHistCap = 1 << 12

// degreePercentile returns the machine-degree value at the given
// percentile (nearest-rank).
func degreePercentile(g *Graph, pct float64) int {
	return degreePercentileMasked(g, pct, nil)
}

// degreePercentileMasked is degreePercentile restricted to machines with
// include[m] true (nil includes every machine). The scan builds sharded
// degree histograms instead of sorting, so it is O(machines) and
// parallel; the nearest-rank result is identical to sorting.
func degreePercentileMasked(g *Graph, pct float64, include []bool) int {
	nm := g.NumMachines()
	type shard struct {
		hist     []int
		overflow []int
		n        int
	}
	res := make([]shard, shardCount(nm))
	parallelShards(nm, func(si, lo, hi int) {
		s := shard{hist: make([]int, degHistCap)}
		for m := lo; m < hi; m++ {
			if include != nil && !include[m] {
				continue
			}
			s.n++
			deg := g.MachineDegree(int32(m))
			if deg < degHistCap {
				s.hist[deg]++
			} else {
				s.overflow = append(s.overflow, deg)
			}
		}
		res[si] = s
	})
	n := 0
	hist := make([]int, degHistCap)
	var overflow []int
	for _, s := range res {
		n += s.n
		for d, c := range s.hist {
			hist[d] += c
		}
		overflow = append(overflow, s.overflow...)
	}
	if n == 0 {
		return 1
	}
	rank := int(math.Ceil(pct / 100.0 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	seen := 0
	for d, c := range hist {
		seen += c
		if seen >= rank {
			return d
		}
	}
	// Rank falls past every histogrammed degree: it indexes the sorted
	// overflow values (seen counts everything below degHistCap).
	sort.Ints(overflow)
	return overflow[rank-seen-1]
}

// materialize builds the subgraph induced by the kept nodes, carrying over
// labels and annotations and re-deriving machine labels. Names resolve
// through g's index and the remap tables (see Graph.derivedFrom), and
// every slab is sized from the kept counts. The machine-side CSR fill and
// the label recomputation are sharded.
func materialize(g *Graph, keepM, keepD []bool) *Graph {
	out := &Graph{
		name:        g.name,
		day:         g.day,
		labelSrc:    g.labelSrc,
		numE2LDs:    g.numE2LDs,
		derivedFrom: g,
	}
	out.labeled.Store(g.Labeled())

	nm, nd := countTrue(keepM), countTrue(keepD)
	mMap := make([]int32, len(keepM))
	out.machineIDs = make([]string, 0, nm)
	for m := range keepM {
		mMap[m] = -1
		if keepM[m] {
			mMap[m] = int32(len(out.machineIDs))
			out.machineIDs = append(out.machineIDs, g.machineIDs[m])
		}
	}

	dMap := make([]int32, len(keepD))
	out.domains = make([]string, 0, nd)
	out.domainE2LD = make([]string, 0, nd)
	out.domainE2LDID = make([]int32, 0, nd)
	out.domainIPs = make([][]dnsutil.IPv4, 0, nd)
	out.domainLabel = make([]Label, 0, nd)
	for d := range keepD {
		dMap[d] = -1
		if !keepD[d] {
			continue
		}
		dMap[d] = int32(len(out.domains))
		out.domains = append(out.domains, g.domains[d])
		out.domainE2LD = append(out.domainE2LD, g.domainE2LD[d])
		out.domainE2LDID = append(out.domainE2LDID, g.domainE2LDID[d])
		out.domainIPs = append(out.domainIPs, g.domainIPs[d])
		out.domainLabel = append(out.domainLabel, g.domainLabel[d])
	}
	out.machineRemap, out.domainRemap = mMap, dMap

	// Machine-side CSR over surviving edges. Counting and filling are
	// parallel over source machines: after the prefix sum each machine
	// owns a disjoint range of mAdj.
	out.mOff = make([]int32, nm+1)
	parallelFor(len(keepM), func(lo, hi int) {
		for m := lo; m < hi; m++ {
			if !keepM[m] {
				continue
			}
			n := int32(0)
			for _, d := range g.DomainsOf(int32(m)) {
				if dMap[d] >= 0 {
					n++
				}
			}
			out.mOff[mMap[m]+1] = n
		}
	})
	for m := 0; m < nm; m++ {
		out.mOff[m+1] += out.mOff[m]
	}
	out.mAdj = make([]int32, out.mOff[nm])
	parallelFor(len(keepM), func(lo, hi int) {
		for m := lo; m < hi; m++ {
			if !keepM[m] {
				continue
			}
			cursor := out.mOff[mMap[m]]
			for _, d := range g.DomainsOf(int32(m)) {
				if dMap[d] >= 0 {
					out.mAdj[cursor] = dMap[d]
					cursor++
				}
			}
		}
	})

	// Domain-side CSR via counting sort.
	out.dOff = make([]int32, nd+1)
	for _, d := range out.mAdj {
		out.dOff[d+1]++
	}
	for d := 0; d < nd; d++ {
		out.dOff[d+1] += out.dOff[d]
	}
	out.dAdj = make([]int32, len(out.mAdj))
	dCursor := make([]int32, nd)
	copy(dCursor, out.dOff[:nd])
	for m := 0; m < nm; m++ {
		for _, d := range out.DomainsOf(int32(m)) {
			out.dAdj[dCursor[d]] = int32(m)
			dCursor[d]++
		}
	}

	out.numEdges = len(out.mAdj)
	out.labelMachines(nil)
	return out
}

func countTrue(keep []bool) int {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return n
}
