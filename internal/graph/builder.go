package graph

import (
	"math/bits"
	"slices"
	"sync"

	"segugio/internal/dnsutil"
)

// Builder accumulates one observation window of DNS queries and produces
// Graphs. It supports two usage modes with identical results:
//
//   - batch: feed a full trace, call Build once, discard the Builder;
//   - incremental: keep appending queries and resolutions (the segugiod
//     streaming path) and call Snapshot whenever a consistent, immutable
//     view is needed for concurrent scoring.
//
// Snapshotting is amortized-incremental: the edge list is kept as a
// sorted, deduplicated base run plus a small unsorted pending buffer, so
// Snapshot radix-sorts only the pending delta and merges it in. Name
// slabs are append-only and shared copy-on-write with snapshots, and the
// CSR adjacency is shared with a per-node overlay for nodes touched since
// the last full compaction. Compaction (a full CSR rebuild) runs when the
// overlay grows past a fraction of the base, keeping the amortized
// snapshot cost O(delta) plus the merge's shift of the base run.
//
// Duplicate (machine, domain) observations are deduplicated at
// Build/Snapshot time. Builder is not safe for concurrent use; callers
// that append and snapshot from different goroutines must serialize
// access themselves. Snapshots, once returned, share no mutable state
// with the Builder and may be read concurrently with further appends.
type Builder struct {
	name     string
	day      int
	suffixes *dnsutil.SuffixList

	// Interned node names. The slabs (machineIDs, domains, domainE2LD)
	// are append-only: published prefixes are never rewritten, so a
	// snapshot holds a length-capped view instead of a copy. The lookup
	// maps are split into a frozen published map (shared read-only with
	// snapshots) and a small recent map holding entries interned since
	// the last publish; publishing re-merges the two when the recent map
	// outgrows a fraction of the published one.
	machinePub    map[string]int32
	machineRecent map[string]int32
	domainPub     map[string]int32
	domainRecent  map[string]int32
	machinePubGen uint64
	domainPubGen  uint64

	machineIDs []string
	domains    []string
	domainE2LD []string
	// domainE2LDID is domainE2LD as dense ids (e2ldEntry.id), so the prune
	// plan groups and counts e2LDs without hashing their names.
	domainE2LDID []int32
	domainIPs    [][]dnsutil.IPv4
	// ipSets holds the per-domain address set for domains whose address
	// count crossed ipSetThreshold (fast-flux); below the threshold a
	// linear scan over domainIPs[d] is cheaper than a map.
	ipSets map[int32]map[dnsutil.IPv4]struct{}

	// Edge storage: base is sorted by (machine, domain) and deduplicated;
	// pending collects appends since the last snapshot.
	base    []edge
	pending []edge

	// Base CSR built at the last compaction, shared with snapshots.
	csrMOff, csrMAdj []int32
	csrDOff, csrDAdj []int32
	csrNM, csrND     int

	// Overlay adjacency for nodes whose edge set changed since the last
	// compaction: ov[node] is -1 (read the base CSR row) or an index into
	// ovAdj holding the node's full adjacency. ovMut/ipMut are change
	// generations used to reuse the previous snapshot's frozen copies.
	ovM, ovD       []int32
	ovMAdj, ovDAdj [][]int32
	ovEdges        int
	ovMut, ipMut   uint64

	// Dirty bookkeeping. freshLog records, in order, every edge that
	// survived deduplication; ipLog/ipLogIP every first-time (domain,
	// address) pair. Positions are absolute (offset by
	// freshBase/ipLogBase) so the logs can be trimmed once no baseline
	// needs the prefix.
	freshLog  []edge
	freshBase int
	ipLog     []int32
	ipLogIP   []dnsutil.IPv4
	ipLogBase int

	// Drain state for DrainInto: absolute positions of the last drained
	// log prefix, the destination builder, and the shard id -> destination
	// id translation tables (one entry per interned node, extended only
	// when this builder interned a new name). Only builders that are
	// actually drained (the per-shard builders behind a sharded ingester)
	// set drainActive, so ordinary builders keep trimming their logs as
	// before.
	drainActive    bool
	drainFresh     int
	drainIP        int
	drainDst       *Builder
	drainM, drainD []int32
	// adjStale is set when a drain grew the base run without folding the
	// fresh edges into the CSR/overlay: nobody reads a shard's adjacency
	// between checkpoints, so the next snapshot rebuilds it instead.
	adjStale bool

	// Scratch for the per-snapshot dirty computations: node-id sets that
	// reset in O(1), so a snapshot's bookkeeping costs what its delta
	// touches rather than a hash insert per touched node.
	domainSet, machineSet IDSet
	machineScratch        []int32

	// Per-domain "queried at least once this window" flags and per-e2LD
	// grouping, used to propagate first-query activity dirt to e2LD
	// siblings (their e2LD activity features change too).
	domainQueried []bool
	e2lds         map[string]*e2ldEntry
	e2ldPending   []*e2ldEntry

	lastSnap      *Graph
	lastSnapFresh int
	lastSnapIP    int
	lastSnapND    int
	lastLabeled   *Graph

	frozenNM, frozenND       int
	frozenOvMut, frozenIPMut uint64
	frozenMPubGen            uint64
	frozenDPubGen            uint64
}

// edge packs a (machine, domain) id pair into one word, machine in the
// high half. Node ids are non-negative, so integer order is (machine,
// domain) order and the edge runs sort and search as plain integers.
type edge uint64

func newEdge(m, d int32) edge { return edge(uint64(uint32(m))<<32 | uint64(uint32(d))) }

func (e edge) m() int32 { return int32(e >> 32) }
func (e edge) d() int32 { return int32(uint32(e)) }

// IDSet is a reusable set of non-negative ids (node ids): a
// generation-stamped slice, so emptying it is one increment and
// membership costs no hashing. The zero value is an empty set.
type IDSet struct {
	stamp []uint32
	gen   uint32
}

// Reset empties the set and sizes it for ids below n.
func (s *IDSet) Reset(n int) {
	s.grow(n)
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(s.stamp)
		s.gen = 1
	}
}

func (s *IDSet) grow(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
}

// Add inserts id, growing the set past the size Reset gave it if
// needed, and reports whether id was absent.
func (s *IDSet) Add(id int32) bool {
	s.grow(int(id) + 1)
	if s.stamp[id] == s.gen {
		return false
	}
	s.stamp[id] = s.gen
	return true
}

type e2ldEntry struct {
	// id is dense in first-sight order and never changes for the life of
	// the builder.
	id      int32
	domains []int32
	queried bool
}

const (
	// ipSetThreshold is the per-domain address count past which
	// AddResolution switches from a linear scan to a hash set. Fast-flux
	// domains accumulate hundreds of addresses, making the scan O(n) per
	// event and O(n²) cumulatively — the exact shape Segugio must track.
	ipSetThreshold = 16
	// indexPublishMin bounds how small the recent intern maps may grow
	// before a publish is considered.
	indexPublishMin = 64
	// overlaySlackMin bounds how many overlay edges may accumulate before
	// a compaction is considered.
	overlaySlackMin = 1024
	// logTrimMin is the minimum consumed log prefix worth compacting.
	logTrimMin = 4096
)

// NewBuilder starts a graph for the named network and observation day.
// The suffix list is used to annotate each domain with its effective 2LD.
func NewBuilder(name string, day int, suffixes *dnsutil.SuffixList) *Builder {
	return &Builder{
		name:          name,
		day:           day,
		suffixes:      suffixes,
		machinePub:    make(map[string]int32),
		machineRecent: make(map[string]int32),
		domainPub:     make(map[string]int32),
		domainRecent:  make(map[string]int32),
		ipSets:        make(map[int32]map[dnsutil.IPv4]struct{}),
		e2lds:         make(map[string]*e2ldEntry),
	}
}

// Name returns the network name passed to NewBuilder.
func (b *Builder) Name() string { return b.name }

// Day returns the observation day passed to NewBuilder.
func (b *Builder) Day() int { return b.day }

// NumMachines reports how many distinct machines have been observed.
func (b *Builder) NumMachines() int { return len(b.machineIDs) }

// NumDomains reports how many distinct domains have been observed.
func (b *Builder) NumDomains() int { return len(b.domains) }

// NumObservations reports the raw (machine, domain) observation count,
// before Build/Snapshot-time deduplication. It can only shrink when a
// Build or Snapshot compacts duplicates away.
func (b *Builder) NumObservations() int { return len(b.base) + len(b.pending) }

// DomainNamesSince returns the names of the domains interned at index n
// or later, in intern order. The name slab is append-only, so the
// returned view stays valid (and fixed) across further appends; the
// sharded ingester uses it to keep an exact global domain count without
// re-scanning whole shards.
func (b *Builder) DomainNamesSince(n int) []string {
	return b.domains[n:len(b.domains):len(b.domains)]
}

// AddQuery records that machineID queried domain during the window. It
// returns the domain's effective 2LD as interned and whether this is the
// first query of the domain in this builder's window — the edge on which
// per-(day, name) bookkeeping such as activity marks needs to run once.
func (b *Builder) AddQuery(machineID, domain string) (e2ld string, first bool) {
	d := b.Domain(domain)
	return b.domainE2LD[d], b.AddEdge(b.Machine(machineID), d)
}

// AddEdge is AddQuery on node ids this builder handed out (Machine,
// Domain); it reports the domain's first query. A caller that sees the
// same names over and over — the ingester's per-connection symbol tables,
// DrainInto's translation tables — resolves each once and appends ids.
func (b *Builder) AddEdge(m, d int32) (first bool) {
	b.pending = append(b.pending, newEdge(m, d))
	if b.domainQueried[d] {
		return false
	}
	b.domainQueried[d] = true
	ent := b.e2lds[b.domainE2LD[d]]
	if !ent.queried {
		ent.queried = true
		b.e2ldPending = append(b.e2ldPending, ent)
	}
	return true
}

// EachQueriedDomain calls fn with the name and e2LD of every domain
// queried at least once this window, in intern order. A restored builder
// reports its recovered domains too, which is how a restart re-marks the
// day's activity without replaying the day.
func (b *Builder) EachQueriedDomain(fn func(domain, e2ld string)) {
	for d, queried := range b.domainQueried {
		if queried {
			fn(b.domains[d], b.domainE2LD[d])
		}
	}
}

// AddResolution annotates domain with one address it resolved to during
// the window. Duplicate addresses are ignored. This is the streaming
// counterpart of SetDomainIPs: one resolution event at a time.
func (b *Builder) AddResolution(domain string, ip dnsutil.IPv4) {
	b.AddAddress(b.Domain(domain), ip)
}

// AddAddress is AddResolution on a domain id this builder handed out.
func (b *Builder) AddAddress(d int32, ip dnsutil.IPv4) {
	ips := b.domainIPs[d]
	if set, ok := b.ipSets[d]; ok {
		if _, dup := set[ip]; dup {
			return
		}
		set[ip] = struct{}{}
	} else if len(ips) < ipSetThreshold {
		for _, have := range ips {
			if have == ip {
				return
			}
		}
	} else {
		set = make(map[dnsutil.IPv4]struct{}, len(ips)+1)
		for _, have := range ips {
			set[have] = struct{}{}
		}
		b.ipSets[d] = set
		if _, dup := set[ip]; dup {
			return
		}
		set[ip] = struct{}{}
	}
	// Snapshots hold the outer slice header by value, so appending here
	// (even growing in place within capacity) never changes what a
	// published snapshot sees.
	b.domainIPs[d] = append(ips, ip)
	b.ipLog = append(b.ipLog, d)
	b.ipLogIP = append(b.ipLogIP, ip)
	b.ipMut++
}

// SetDomainIPs annotates domain with the addresses it resolved to. Calling
// it again for the same domain merges the address sets.
func (b *Builder) SetDomainIPs(domain string, ips []dnsutil.IPv4) {
	for _, ip := range ips {
		b.AddResolution(domain, ip)
	}
}

// MarkLabeled tells the Builder that g — one of its snapshots — has had
// ApplyLabels run with the daemon's standing label sources. Subsequent
// snapshots use the most recent labeled snapshot as the baseline for
// incremental relabeling, so ApplyLabels touches only nodes that changed
// since. Callers must serialize MarkLabeled with other Builder calls.
func (b *Builder) MarkLabeled(g *Graph) {
	if g == nil || !g.labelsApplied || g.day != b.day || g.name != b.name {
		return
	}
	if b.lastLabeled == nil || g.snapFreshPos >= b.lastLabeled.snapFreshPos {
		b.lastLabeled = g
	}
}

func (b *Builder) lookupMachine(id string) (int32, bool) {
	if m, ok := b.machinePub[id]; ok {
		return m, true
	}
	m, ok := b.machineRecent[id]
	return m, ok
}

func (b *Builder) lookupDomain(name string) (int32, bool) {
	if d, ok := b.domainPub[name]; ok {
		return d, true
	}
	d, ok := b.domainRecent[name]
	return d, ok
}

// Machine returns the node id of the machine named id, interning it on
// first sight. Ids are dense, start at 0 and never change for the life
// of the builder.
func (b *Builder) Machine(id string) int32 {
	if m, ok := b.lookupMachine(id); ok {
		return m
	}
	m := int32(len(b.machineIDs))
	b.machineRecent[id] = m
	b.machineIDs = append(b.machineIDs, id)
	return m
}

// Domain returns the node id of the (normalized) domain name, interning
// it — and deriving its effective 2LD — on first sight. Ids are dense,
// start at 0 and never change for the life of the builder.
func (b *Builder) Domain(name string) int32 {
	if d, ok := b.lookupDomain(name); ok {
		return d
	}
	return b.internDomain(name, b.suffixes.E2LD(name))
}

// E2LD returns the effective 2LD of domain id d.
func (b *Builder) E2LD(d int32) string { return b.domainE2LD[d] }

// internDomain appends a domain known to be absent. The e2LD is taken as
// given so a merged builder can reuse the one its shard already derived.
func (b *Builder) internDomain(name, e2 string) int32 {
	d := int32(len(b.domains))
	b.domainRecent[name] = d
	b.domains = append(b.domains, name)
	b.domainE2LD = append(b.domainE2LD, e2)
	b.domainIPs = append(b.domainIPs, nil)
	b.domainQueried = append(b.domainQueried, false)
	ent := b.e2lds[e2]
	if ent == nil {
		ent = &e2ldEntry{id: int32(len(b.e2lds))}
		b.e2lds[e2] = ent
	}
	ent.domains = append(ent.domains, d)
	b.domainE2LDID = append(b.domainE2LDID, ent.id)
	return d
}

// Build assembles the bidirectional CSR adjacency. The Builder remains
// usable afterwards; Build forces a full compaction so batch-built graphs
// carry plain CSR arrays exactly like always.
func (b *Builder) Build() *Graph { return b.snapshot(true) }

// Snapshot deduplicates the pending queries, merges them into the base
// run, and assembles an immutable Graph that shares no mutable state with
// the Builder: further AddQuery / AddResolution calls never affect a
// previously returned snapshot, so the daemon can keep ingesting while
// older snapshots are being scored. The snapshot also records which
// domains are dirty since the previous snapshot; see Graph.DirtyDomains.
func (b *Builder) Snapshot() *Graph { return b.snapshot(false) }

func (b *Builder) snapshot(forceCompact bool) *Graph {
	fresh := b.mergePending()
	b.freshLog = append(b.freshLog, fresh...)
	if forceCompact || b.adjStale || b.csrMOff == nil || b.ovEdges+len(fresh) > len(b.base)/4+overlaySlackMin {
		b.compact()
	} else if len(fresh) > 0 {
		b.applyOverlay(fresh)
	}
	b.pending = b.pending[:0]

	g := b.freeze()
	b.computeDirty(g)
	b.computeLabelDelta(g)
	b.finishSnapshot(g)
	return g
}

// mergePending sorts and deduplicates the pending buffer, drops edges
// already present in base, merges the survivors into base (kept sorted),
// and returns the fresh edges. The returned slice aliases the pending
// buffer and is only valid until the next append.
func (b *Builder) mergePending() []edge {
	if len(b.pending) == 0 {
		return nil
	}
	p := b.pending
	sortEdges(p, len(b.machineIDs), len(b.domains))
	// One pass drops in-batch repeats and edges already in base; p is
	// sorted, so each base probe gallops forward from the previous hit.
	fresh, at := p[:0], 0
	for i, e := range p {
		if i > 0 && e == p[i-1] {
			continue
		}
		if at = gallop(b.base, at, e); at < len(b.base) && b.base[at] == e {
			continue
		}
		fresh = append(fresh, e)
	}
	b.mergeIntoBase(fresh)
	return fresh
}

const (
	// radixBits is the digit width of sortEdges; below radixMin edges
	// slices.Sort is cheaper than the counting passes.
	radixBits = 11
	radixMin  = 256
)

// radixScratch lends sortEdges its second buffer, so no builder keeps
// one resident between snapshots.
var radixScratch sync.Pool

// sortEdges sorts p, whose machine ids are below nm and domain ids below
// nd, by LSD radix over the significant bits only: the domain half, then
// the machine half, in radixBits-wide digits.
func sortEdges(p []edge, nm, nd int) {
	if len(p) < radixMin {
		slices.Sort(p)
		return
	}
	bufp, _ := radixScratch.Get().(*[]edge)
	if bufp == nil || cap(*bufp) < len(p) {
		buf := make([]edge, len(p))
		bufp = &buf
	}
	src, dst := p, (*bufp)[:len(p)]
	var count [1 << radixBits]int
	// A domain digit may reach past bit 31 into the machine half; the
	// machine passes, which run after it, sort those bits again.
	for shift := 0; shift < bits.Len32(uint32(nd)); shift += radixBits {
		radixPass(src, dst, shift, &count)
		src, dst = dst, src
	}
	for shift := 32; shift < 32+bits.Len32(uint32(nm)); shift += radixBits {
		radixPass(src, dst, shift, &count)
		src, dst = dst, src
	}
	if &src[0] != &p[0] {
		copy(p, src)
	}
	radixScratch.Put(bufp)
}

// radixPass stably scatters src into dst by the radixBits-wide digit at
// shift.
func radixPass(src, dst []edge, shift int, count *[1 << radixBits]int) {
	clear(count[:])
	for _, e := range src {
		count[(e>>shift)&(1<<radixBits-1)]++
	}
	sum := 0
	for k, c := range count {
		count[k] = sum
		sum += c
	}
	for _, e := range src {
		k := (e >> shift) & (1<<radixBits - 1)
		dst[count[k]] = e
		count[k]++
	}
}

// gallop returns the first index at or after lo whose edge is not below
// e. It probes lo+1, lo+2, lo+4, … and binary-searches the last step, so
// a sorted run of probes costs O(log gap) each instead of O(log len(s)).
func gallop(s []edge, lo int, e edge) int {
	if lo >= len(s) || s[lo] >= e {
		return lo
	}
	step := 1
	for lo+step < len(s) && s[lo+step] < e {
		lo += step
		step <<= 1
	}
	i, _ := slices.BinarySearch(s[lo+1:min(lo+step, len(s))], e)
	return lo + 1 + i
}

// mergeIntoBase merges the sorted fresh run into the sorted base run with
// a single backward pass, in place when capacity allows.
func (b *Builder) mergeIntoBase(fresh []edge) {
	if len(fresh) == 0 {
		return
	}
	old := len(b.base)
	need := old + len(fresh)
	if cap(b.base) < need {
		grown := make([]edge, old, need+need/4)
		copy(grown, b.base)
		b.base = grown
	}
	b.base = b.base[:need]
	i, j, k := old-1, len(fresh)-1, need-1
	for j >= 0 {
		if i >= 0 && fresh[j] < b.base[i] {
			b.base[k] = b.base[i]
			i--
		} else {
			b.base[k] = fresh[j]
			j--
		}
		k--
	}
}

// applyOverlay folds fresh edges into the per-node overlay adjacency,
// materializing a node's base CSR row on first touch.
func (b *Builder) applyOverlay(fresh []edge) {
	b.ensureOverlay()
	for _, e := range fresh {
		b.overlayAddM(e.m(), e.d())
		b.overlayAddD(e.d(), e.m())
	}
	b.ovEdges += len(fresh)
	b.ovMut++
}

func (b *Builder) ensureOverlay() {
	if b.ovM == nil {
		b.ovM = filledMinusOne(len(b.machineIDs))
		b.ovD = filledMinusOne(len(b.domains))
		return
	}
	for len(b.ovM) < len(b.machineIDs) {
		b.ovM = append(b.ovM, -1)
	}
	for len(b.ovD) < len(b.domains) {
		b.ovD = append(b.ovD, -1)
	}
}

func filledMinusOne(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

func (b *Builder) overlayAddM(m, d int32) {
	slot := b.ovM[m]
	if slot < 0 {
		var adj []int32
		if int(m) < b.csrNM {
			row := b.csrMAdj[b.csrMOff[m]:b.csrMOff[m+1]]
			adj = append(make([]int32, 0, len(row)+4), row...)
		}
		slot = int32(len(b.ovMAdj))
		b.ovMAdj = append(b.ovMAdj, adj)
		b.ovM[m] = slot
	}
	b.ovMAdj[slot] = append(b.ovMAdj[slot], d)
}

func (b *Builder) overlayAddD(d, m int32) {
	slot := b.ovD[d]
	if slot < 0 {
		var adj []int32
		if int(d) < b.csrND {
			row := b.csrDAdj[b.csrDOff[d]:b.csrDOff[d+1]]
			adj = append(make([]int32, 0, len(row)+4), row...)
		}
		slot = int32(len(b.ovDAdj))
		b.ovDAdj = append(b.ovDAdj, adj)
		b.ovD[d] = slot
	}
	b.ovDAdj[slot] = append(b.ovDAdj[slot], m)
}

// compact rebuilds both CSR directions from the sorted base run and drops
// the overlay. O(nodes + edges), amortized across many snapshots by the
// overlay growth threshold.
func (b *Builder) compact() {
	nm, nd, ne := len(b.machineIDs), len(b.domains), len(b.base)
	mOff := make([]int32, nm+1)
	for _, e := range b.base {
		mOff[e.m()+1]++
	}
	for m := 0; m < nm; m++ {
		mOff[m+1] += mOff[m]
	}
	mAdj := make([]int32, ne)
	for i, e := range b.base {
		mAdj[i] = e.d()
	}

	dOff := make([]int32, nd+1)
	for _, e := range b.base {
		dOff[e.d()+1]++
	}
	for d := 0; d < nd; d++ {
		dOff[d+1] += dOff[d]
	}
	dAdj := make([]int32, ne)
	cursor := make([]int32, nd)
	copy(cursor, dOff[:nd])
	for _, e := range b.base {
		dAdj[cursor[e.d()]] = e.m()
		cursor[e.d()]++
	}

	b.csrMOff, b.csrMAdj, b.csrDOff, b.csrDAdj = mOff, mAdj, dOff, dAdj
	b.csrNM, b.csrND = nm, nd
	b.ovM, b.ovD, b.ovMAdj, b.ovDAdj = nil, nil, nil, nil
	b.ovEdges = 0
	b.ovMut++
	b.adjStale = false
}

// freeze assembles an immutable Graph over the current builder state.
// Everything shared with the builder is append-only or copied: name slabs
// become length-capped views, the base CSR is shared outright, and the
// small per-snapshot headers (overlay slots, IP outer slice, recent
// intern maps) are copied — or reused from the previous snapshot when
// nothing changed.
func (b *Builder) freeze() *Graph {
	nm, nd := len(b.machineIDs), len(b.domains)
	prev := b.lastSnap

	if len(b.machineRecent) > len(b.machinePub)/4+indexPublishMin {
		b.machinePub = mergeMaps(b.machinePub, b.machineRecent)
		b.machineRecent = make(map[string]int32)
		b.machinePubGen++
	}
	if len(b.domainRecent) > len(b.domainPub)/4+indexPublishMin {
		b.domainPub = mergeMaps(b.domainPub, b.domainRecent)
		b.domainRecent = make(map[string]int32)
		b.domainPubGen++
	}

	var mExtra, dExtra map[string]int32
	if len(b.machineRecent) > 0 {
		if prev != nil && nm == b.frozenNM && b.machinePubGen == b.frozenMPubGen {
			mExtra = prev.machineExtra
		} else {
			mExtra = mergeMaps(nil, b.machineRecent)
		}
	}
	if len(b.domainRecent) > 0 {
		if prev != nil && nd == b.frozenND && b.domainPubGen == b.frozenDPubGen {
			dExtra = prev.domainExtra
		} else {
			dExtra = mergeMaps(nil, b.domainRecent)
		}
	}

	var ips [][]dnsutil.IPv4
	if prev != nil && nd == b.frozenND && b.ipMut == b.frozenIPMut {
		ips = prev.domainIPs
	} else {
		ips = make([][]dnsutil.IPv4, nd)
		copy(ips, b.domainIPs)
	}

	// Nodes interned since the last compaction lie past the base CSR even
	// when no edge has touched the overlay yet (a resolution-only domain):
	// the snapshot still needs overlay slots to report them edgeless.
	var ovM, ovD []int32
	var ovMAdj, ovDAdj [][]int32
	if b.ovM != nil || nm > b.csrNM || nd > b.csrND {
		if prev != nil && prev.ovM != nil && nm == b.frozenNM && nd == b.frozenND && b.ovMut == b.frozenOvMut {
			ovM, ovD = prev.ovM, prev.ovD
			ovMAdj, ovDAdj = prev.ovMAdj, prev.ovDAdj
		} else {
			ovM = frozenSlots(b.ovM, nm)
			ovD = frozenSlots(b.ovD, nd)
			ovMAdj = append([][]int32(nil), b.ovMAdj...)
			ovDAdj = append([][]int32(nil), b.ovDAdj...)
		}
	}

	return &Graph{
		name:         b.name,
		day:          b.day,
		machineIDs:   b.machineIDs[:nm:nm],
		domains:      b.domains[:nd:nd],
		domainE2LD:   b.domainE2LD[:nd:nd],
		domainE2LDID: b.domainE2LDID[:nd:nd],
		numE2LDs:     len(b.e2lds),
		domainIPs:    ips,
		mOff:         b.csrMOff,
		mAdj:         b.csrMAdj,
		dOff:         b.csrDOff,
		dAdj:         b.csrDAdj,
		csrNM:        b.csrNM,
		csrND:        b.csrND,
		ovM:          ovM,
		ovD:          ovD,
		ovMAdj:       ovMAdj,
		ovDAdj:       ovDAdj,
		numEdges:     len(b.base),
		machineIndex: b.machinePub,
		domainIndex:  b.domainPub,
		machineExtra: mExtra,
		domainExtra:  dExtra,
		snapFreshPos: b.freshBase + len(b.freshLog),
	}
}

func mergeMaps(pub, recent map[string]int32) map[string]int32 {
	out := make(map[string]int32, len(pub)+len(recent))
	for k, v := range pub {
		out[k] = v
	}
	for k, v := range recent {
		out[k] = v
	}
	return out
}

func frozenSlots(src []int32, n int) []int32 {
	out := make([]int32, n)
	filled := copy(out, src)
	for i := filled; i < n; i++ {
		out[i] = -1
	}
	return out
}

// computeDirty records on g the set of domains whose adjacency, IP
// annotations, activity, or label-relevant neighborhood changed since the
// previous snapshot: domains with fresh edges or first-time addresses,
// newly interned domains, e2LD siblings of domains first queried this
// window (their e2LD activity features moved), and every domain of a
// machine with fresh edges (the machine's label and counts feed those
// domains' features). The first snapshot of a window has no baseline and
// is marked inexact: every domain must be treated as dirty.
func (b *Builder) computeDirty(g *Graph) {
	if b.lastSnap == nil {
		return
	}
	g.deltaExact = true
	b.domainSet.Reset(len(b.domains))
	b.machineSet.Reset(len(b.machineIDs))
	var dirty []int32
	add := func(d int32) {
		if b.domainSet.Add(d) {
			dirty = append(dirty, d)
		}
	}
	machines := b.machineScratch[:0]
	for _, e := range b.freshLog[b.lastSnapFresh-b.freshBase:] {
		add(e.d())
		if b.machineSet.Add(e.m()) {
			machines = append(machines, e.m())
		}
	}
	for _, d := range b.ipLog[b.lastSnapIP-b.ipLogBase:] {
		add(d)
	}
	for d := b.lastSnapND; d < len(b.domains); d++ {
		add(int32(d))
	}
	for _, ent := range b.e2ldPending {
		for _, d := range ent.domains {
			add(d)
		}
	}
	for _, m := range machines {
		for _, d := range g.DomainsOf(m) {
			add(d)
		}
	}
	b.machineScratch = machines
	slices.Sort(dirty)
	g.dirtyDomains = dirty
}

// computeLabelDelta records the machines ApplyLabels must recompute when
// relabeling incrementally against the last labeled snapshot: machines
// with fresh edges since that snapshot, plus machines interned since.
func (b *Builder) computeLabelDelta(g *Graph) {
	base := b.lastLabeled
	if base == nil {
		return
	}
	g.labelBase = base
	b.machineSet.Reset(len(b.machineIDs))
	dirty := []int32{}
	for _, e := range b.freshLog[base.snapFreshPos-b.freshBase:] {
		if b.machineSet.Add(e.m()) {
			dirty = append(dirty, e.m())
		}
	}
	for m := base.NumMachines(); m < len(b.machineIDs); m++ {
		if b.machineSet.Add(int32(m)) {
			dirty = append(dirty, int32(m))
		}
	}
	slices.Sort(dirty)
	g.labelDirtyMachines = dirty
}

func (b *Builder) finishSnapshot(g *Graph) {
	nm, nd := len(b.machineIDs), len(b.domains)
	b.lastSnap = g
	b.lastSnapFresh = b.freshBase + len(b.freshLog)
	b.lastSnapIP = b.ipLogBase + len(b.ipLog)
	b.lastSnapND = nd
	b.e2ldPending = b.e2ldPending[:0]
	b.frozenNM, b.frozenND = nm, nd
	b.frozenOvMut, b.frozenIPMut = b.ovMut, b.ipMut
	b.frozenMPubGen, b.frozenDPubGen = b.machinePubGen, b.domainPubGen
	b.trimLogs()
}

// BeginDrain activates the DrainInto cursor at the current log base
// without replaying anything. A builder that will be drained later but
// must be snapshotted first (the rehash path checkpoints redistributed
// shard builders before the ingester's seed drain) calls this right
// after construction: otherwise the snapshot's own baseline lets
// trimLogs discard the not-yet-drained prefix and the first DrainInto
// silently emits nothing. Do not call it on builders that are never
// drained — a pinned cursor keeps the logs alive forever.
func (b *Builder) BeginDrain() {
	if !b.drainActive {
		b.drainActive = true
		b.drainFresh = b.freshBase
		b.drainIP = b.ipLogBase
	}
}

// DrainInto folds the pending buffer into the base run and appends every
// not-yet-drained deduplicated edge and first-time (domain, address)
// pair to dst, in apply order. It is the shard-to-merged feed of the
// sharded ingest backend: each shard builder absorbs raw events on the
// hot path, and the snapshot coordinator drains the per-shard deltas
// into one merged Builder whose Snapshot carries the exact global dirty
// set.
//
// The feed is integer work: names cross only once, when the translation
// tables grow to cover nodes this builder interned since the last drain
// (dst looks each up, interning it with this builder's e2LD if new);
// edges and addresses then cross as translated ids. The tables live and
// die with the builder, so replacing the shard and merged builders
// together (rotation, restore) resets them; a builder drains into one
// destination for its whole life.
//
// Because query events route by machine and resolution events by domain
// (see ShardOf), per-shard deduplication equals global deduplication: no
// two shards ever see the same (machine, domain) or (domain, address)
// pair, so the drained deltas compose without cross-shard duplicates.
//
// The drain leaves this builder's own CSR/overlay behind the base run;
// its next Snapshot rebuilds the adjacency. The first DrainInto must
// happen before any log trimming (immediately after NewBuilder or
// DecodeSnapshot, or after BeginDrain); from then on trimLogs keeps the
// undrained suffix alive. Callers must serialize DrainInto with other
// calls on both builders.
func (b *Builder) DrainInto(dst *Builder) {
	if fresh := b.mergePending(); len(fresh) > 0 {
		b.freshLog = append(b.freshLog, fresh...)
		b.adjStale = true
	}
	b.pending = b.pending[:0]
	b.BeginDrain()
	if b.drainDst == nil {
		b.drainDst = dst
	} else if b.drainDst != dst {
		panic("graph: DrainInto: builder already drains into another destination")
	}

	for _, id := range b.machineIDs[len(b.drainM):] {
		b.drainM = append(b.drainM, dst.Machine(id))
	}
	for i := len(b.drainD); i < len(b.domains); i++ {
		d, ok := dst.lookupDomain(b.domains[i])
		if !ok {
			d = dst.internDomain(b.domains[i], b.domainE2LD[i])
		}
		b.drainD = append(b.drainD, d)
	}
	for _, e := range b.freshLog[b.drainFresh-b.freshBase:] {
		dst.AddEdge(b.drainM[e.m()], b.drainD[e.d()])
	}
	b.drainFresh = b.freshBase + len(b.freshLog)
	tail := b.drainIP - b.ipLogBase
	for i, d := range b.ipLog[tail:] {
		dst.AddAddress(b.drainD[d], b.ipLogIP[tail+i])
	}
	b.drainIP = b.ipLogBase + len(b.ipLog)
	b.trimLogs()
}

// trimLogs drops log prefixes no outstanding baseline can reference: the
// last snapshot's dirty baseline, the last labeled snapshot's relabel
// baseline, and (for drained shard builders) the DrainInto cursor.
func (b *Builder) trimLogs() {
	minFresh, haveFresh := 0, false
	lower := func(pos int) {
		if !haveFresh || pos < minFresh {
			minFresh, haveFresh = pos, true
		}
	}
	if b.lastSnap != nil {
		lower(b.lastSnapFresh)
	}
	if b.lastLabeled != nil {
		lower(b.lastLabeled.snapFreshPos)
	}
	if b.drainActive {
		lower(b.drainFresh)
	}
	if haveFresh {
		if cut := minFresh - b.freshBase; cut >= logTrimMin && cut > len(b.freshLog)/2 {
			rest := copy(b.freshLog, b.freshLog[cut:])
			b.freshLog = b.freshLog[:rest]
			b.freshBase += cut
		}
	}

	minIP, haveIP := 0, false
	if b.lastSnap != nil {
		minIP, haveIP = b.lastSnapIP, true
	}
	if b.drainActive && (!haveIP || b.drainIP < minIP) {
		minIP, haveIP = b.drainIP, true
	}
	if haveIP {
		if cut := minIP - b.ipLogBase; cut >= logTrimMin && cut > len(b.ipLog)/2 {
			rest := copy(b.ipLog, b.ipLog[cut:])
			b.ipLog = b.ipLog[:rest]
			copy(b.ipLogIP, b.ipLogIP[cut:])
			b.ipLogIP = b.ipLogIP[:rest]
			b.ipLogBase += cut
		}
	}
}
