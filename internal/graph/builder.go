package graph

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
// The name table (Machine, Domain, E2LD, NumMachines, NumDomains) is
// safe for concurrent use — segugiod's ingest workers all intern into one
// day's table, and a lookup that hits the published maps, an E2LD of a
// published domain and the counts take no lock.
// The rest is the fold side, which the caller serializes; writers on
// other goroutines stage ids in a Stage and hand it over with Fold.
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
// Duplicate (machine, domain) observations and duplicate addresses are
// deduplicated at Build/Snapshot time. Snapshots, once returned, share no
// mutable state with the Builder and may be read concurrently with
// further appends.
type Builder struct {
	name     string
	day      int
	suffixes *dnsutil.SuffixList

	// The name table. pub holds the published lookup maps, frozen, shared
	// with snapshots and read without a lock; names interned since sit in
	// the recent maps under mu. Publishing (publishUnlock) seals the recent
	// maps, still read under mu, and merges them into new published ones
	// outside the lock. The slabs are append-only under mu, so a view
	// taken under mu stays valid without it; machineN/domainN mirror their
	// lengths for lock-free counts.
	pub               atomic.Pointer[nameIndex]
	mu                sync.Mutex
	machineN, domainN atomic.Int32
	machineRecent     map[string]int32
	domainRecent      map[string]int32
	sealed            nameIndex
	machineIDs        []string
	domains           []string
	domainE2LD        []string
	// domainE2LDID is domainE2LD as dense ids in first-sight order, so the
	// prune plan groups and counts e2LDs without hashing their names.
	domainE2LDID []int32
	e2ldIDs      map[string]int32
	// pubGen counts publishes; at the last freeze it and the slab lengths
	// were frozenGen and frozenMLen/frozenDLen.
	pubGen, frozenGen      uint64
	frozenMLen, frozenDLen int

	// Fold side. nm/nd are the node counts of the snapshot being built
	// (or last built). The views are slab prefixes taken under mu, read
	// without it.
	nm, nd       int
	viewM, viewD []string
	viewE2LD     []string
	viewE2LDID   []int32

	domainIPs [][]dnsutil.IPv4
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
	// csrStale is set when base holds edges neither the CSR nor the
	// overlay has; the next snapshot compacts.
	csrStale bool

	// domainQueried flags the domains queried at least once this window;
	// numE2LDs counts the e2LD ids of the domains the fold side covers.
	domainQueried []bool
	numE2LDs      int

	lastSnap *Graph

	frozenNM, frozenND       int
	frozenOvMut, frozenIPMut uint64
}

// nameIndex is one published pair of lookup maps, with the e2LD slab
// as it stood at publication. It is never written after publication.
type nameIndex struct {
	machine, domain map[string]int32
	e2ld            []string
}

// edge packs a (machine, domain) id pair into one word, machine in the
// high half. Node ids are non-negative, so integer order is (machine,
// domain) order and the edge runs sort and search as plain integers.
type edge uint64

func newEdge(m, d int32) edge { return edge(uint64(uint32(m))<<32 | uint64(uint32(d))) }

func (e edge) m() int32 { return int32(e >> 32) }
func (e edge) d() int32 { return int32(uint32(e)) }

const (
	// ipSetThreshold is the per-domain address count past which
	// AddAddress switches from a linear scan to a hash set. Fast-flux
	// domains accumulate hundreds of addresses, making the scan O(n) per
	// event and O(n²) cumulatively — the exact shape Segugio must track.
	ipSetThreshold = 16
	// indexPublishMin bounds how small the recent intern maps may grow
	// before a publish is considered.
	indexPublishMin = 64
	// overlaySlackMin bounds how many overlay edges may accumulate before
	// a compaction is considered.
	overlaySlackMin = 1024
)

// NewBuilder starts a graph for the named network and observation day.
// The suffix list is used to annotate each domain with its effective 2LD.
func NewBuilder(name string, day int, suffixes *dnsutil.SuffixList) *Builder {
	b := &Builder{
		name:          name,
		day:           day,
		suffixes:      suffixes,
		machineRecent: make(map[string]int32),
		domainRecent:  make(map[string]int32),
		e2ldIDs:       make(map[string]int32),
		ipSets:        make(map[int32]map[dnsutil.IPv4]struct{}),
	}
	b.pub.Store(&nameIndex{machine: map[string]int32{}, domain: map[string]int32{}})
	return b
}

// Name returns the network name passed to NewBuilder.
func (b *Builder) Name() string { return b.name }

// Day returns the observation day passed to NewBuilder.
func (b *Builder) Day() int { return b.day }

// NumMachines reports how many distinct machines have been interned.
func (b *Builder) NumMachines() int { m, _ := b.interned(); return m }

// NumDomains reports how many distinct domains have been interned.
func (b *Builder) NumDomains() int { _, d := b.interned(); return d }

// interned returns the name table's machine and domain counts. Each is
// stored after its slab grows, so the slabs hold at least that many.
func (b *Builder) interned() (int, int) {
	return int(b.machineN.Load()), int(b.domainN.Load())
}

// NumObservations reports the raw (machine, domain) observation count,
// before Build/Snapshot-time deduplication. It can only shrink when a
// Build or Snapshot compacts duplicates away.
func (b *Builder) NumObservations() int { return len(b.base) + len(b.pending) }

// AddQuery records that machineID queried domain during the window.
func (b *Builder) AddQuery(machineID, domain string) {
	b.pending = append(b.pending, newEdge(b.Machine(machineID), b.Domain(domain)))
}

// EachQueriedDomain calls fn with the name and e2LD of every domain
// queried at least once this window, in intern order, as of the last
// snapshot (a restored builder: as of its checkpoint). A restart uses it
// to re-mark the recovered day's activity without replaying the day.
func (b *Builder) EachQueriedDomain(fn func(domain, e2ld string)) {
	b.refreshViews()
	for d, queried := range b.domainQueried {
		if queried {
			fn(b.viewD[d], b.viewE2LD[d])
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
	b.growDomains(int(d) + 1)
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
	b.ipMut++
}

// SetDomainIPs annotates domain with the addresses it resolved to. Calling
// it again for the same domain merges the address sets.
func (b *Builder) SetDomainIPs(domain string, ips []dnsutil.IPv4) {
	for _, ip := range ips {
		b.AddResolution(domain, ip)
	}
}

// Stage collects one writer's edges and addresses as node ids of a
// Builder, for a later Fold on the goroutine that owns the Builder's fold
// side. It keeps no names and does no deduplication: the fold does both
// once, for every stage. A Stage is not safe for concurrent use.
type Stage struct {
	edges []edge
	// addrs packs (domain, address) pairs like edges: domain high.
	addrs []edge
}

// AddEdge stages a query edge between node ids of the Builder.
func (s *Stage) AddEdge(m, d int32) { s.edges = append(s.edges, newEdge(m, d)) }

// AddAddress stages an address of a domain id of the Builder.
func (s *Stage) AddAddress(d int32, ip dnsutil.IPv4) {
	s.addrs = append(s.addrs, edge(uint64(uint32(d))<<32|uint64(ip)))
}

// Fold moves the stages' edges into the pending buffer, grown once to
// hold them all, and their addresses into the domains' address sets,
// dropping each stage's buffers as soon as it is folded.
func (b *Builder) Fold(stages []Stage) {
	n := 0
	for _, st := range stages {
		n += len(st.edges)
	}
	b.pending = slices.Grow(b.pending, n)
	for i := range stages {
		b.pending = append(b.pending, stages[i].edges...)
		for _, a := range stages[i].addrs {
			b.AddAddress(a.m(), dnsutil.IPv4(uint32(a)))
		}
		stages[i] = Stage{}
	}
}

// Machine returns the node id of the machine named id, interning it on
// first sight. Ids are dense, start at 0 and never change for the life
// of the builder. Safe for concurrent use.
func (b *Builder) Machine(id string) int32 {
	if m, ok := b.pub.Load().machine[id]; ok {
		return m
	}
	b.mu.Lock()
	m, ok := lockedID(id, b.machineRecent, b.sealed.machine, b.pub.Load().machine)
	if !ok {
		m = int32(len(b.machineIDs))
		b.machineRecent[id] = m
		b.machineIDs = append(b.machineIDs, id)
		b.machineN.Store(int32(len(b.machineIDs)))
	}
	b.publishUnlock()
	return m
}

// publishUnlock releases mu, first publishing the recent maps when they
// have outgrown a fraction of the published ones and no publish is under
// way: it seals them, merges them into new published maps outside the
// lock — interning goes on meanwhile, into fresh recent maps — and
// installs those. The intern that crosses the threshold pays the merge,
// which the geometric threshold amortizes to O(1) per name.
func (b *Builder) publishUnlock() {
	pub := b.pub.Load()
	if b.sealed.machine != nil || len(b.machineRecent) <= len(pub.machine)/4+indexPublishMin &&
		len(b.domainRecent) <= len(pub.domain)/4+indexPublishMin {
		b.mu.Unlock()
		return
	}
	sealed := nameIndex{machine: b.machineRecent, domain: b.domainRecent}
	b.sealed = sealed
	b.machineRecent, b.domainRecent = make(map[string]int32), make(map[string]int32)
	b.mu.Unlock()
	next := &nameIndex{machine: pub.machine, domain: pub.domain}
	if len(sealed.machine) > 0 {
		next.machine = mergeMaps(pub.machine, sealed.machine)
	}
	if len(sealed.domain) > 0 {
		next.domain = mergeMaps(pub.domain, sealed.domain)
	}
	b.mu.Lock()
	n := len(b.domainE2LD)
	next.e2ld = b.domainE2LD[:n:n]
	b.pub.Store(next)
	b.sealed = nameIndex{}
	b.pubGen++
	b.mu.Unlock()
}

// lockedID looks name up where the lock-free probe of the published map
// cannot see it: the recent map, or — a publish having moved it since the
// probe — the sealed map or the newly published one. Callers hold mu.
func lockedID(name string, recent, sealed, pub map[string]int32) (int32, bool) {
	if id, ok := recent[name]; ok {
		return id, true
	}
	if id, ok := sealed[name]; ok {
		return id, true
	}
	id, ok := pub[name]
	return id, ok
}

// Domain returns the node id of the (normalized) domain name, interning
// it — and deriving its effective 2LD — on first sight. Ids are dense,
// start at 0 and never change for the life of the builder. Safe for
// concurrent use.
func (b *Builder) Domain(name string) int32 {
	if d, ok := b.pub.Load().domain[name]; ok {
		return d
	}
	b.mu.Lock()
	d, ok := lockedID(name, b.domainRecent, b.sealed.domain, b.pub.Load().domain)
	if !ok {
		d = b.internDomainLocked(name)
	}
	b.publishUnlock()
	return d
}

// internDomainLocked appends a domain known to be absent, deriving its
// e2LD. Callers hold mu.
func (b *Builder) internDomainLocked(name string) int32 {
	e2 := b.suffixes.E2LD(name)
	d := int32(len(b.domains))
	b.domainRecent[name] = d
	b.domains = append(b.domains, name)
	b.domainE2LD = append(b.domainE2LD, e2)
	id, ok := b.e2ldIDs[e2]
	if !ok {
		id = int32(len(b.e2ldIDs))
		b.e2ldIDs[e2] = id
	}
	b.domainE2LDID = append(b.domainE2LDID, id)
	b.domainN.Store(int32(len(b.domains)))
	return d
}

// E2LD returns the effective 2LD of domain id d. Safe for concurrent use;
// a domain interned before the last publish takes no lock.
func (b *Builder) E2LD(d int32) string {
	if e2 := b.pub.Load().e2ld; int(d) < len(e2) {
		return e2[d]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.domainE2LD[d]
}

// refreshViews re-takes the fold side's views of the name slabs.
func (b *Builder) refreshViews() {
	b.mu.Lock()
	b.takeViewsLocked()
	b.mu.Unlock()
}

func (b *Builder) takeViewsLocked() {
	nm, nd := len(b.machineIDs), len(b.domains)
	b.viewM = b.machineIDs[:nm:nm]
	b.viewD = b.domains[:nd:nd]
	b.viewE2LD = b.domainE2LD[:nd:nd]
	b.viewE2LDID = b.domainE2LDID[:nd:nd]
}

// growDomains extends the fold side's per-domain state to cover the
// first n domains of the name table.
func (b *Builder) growDomains(n int) {
	have := len(b.domainIPs)
	if n <= have {
		return
	}
	if n > len(b.viewE2LDID) {
		b.refreshViews()
	}
	for _, e := range b.viewE2LDID[have:n] {
		b.numE2LDs = max(b.numE2LDs, int(e)+1)
	}
	b.domainIPs = append(b.domainIPs, make([][]dnsutil.IPv4, n-have)...)
	b.domainQueried = append(b.domainQueried, make([]bool, n-have)...)
}

// Build assembles the bidirectional CSR adjacency. The Builder remains
// usable afterwards; Build forces a full compaction so batch-built graphs
// carry plain CSR arrays exactly like always.
func (b *Builder) Build() *Graph { return b.snapshot(true) }

// Snapshot deduplicates the pending queries, merges them into the base
// run, and assembles an immutable Graph that shares no mutable state with
// the Builder: further AddQuery / AddResolution calls never affect a
// previously returned snapshot, so the daemon can keep ingesting while
// older snapshots are being scored.
func (b *Builder) Snapshot() *Graph { return b.snapshot(false) }

func (b *Builder) snapshot(forceCompact bool) *Graph {
	b.nm, b.nd = b.interned()
	b.growDomains(b.nd)
	fresh := b.mergePending()
	b.markQueried(fresh)
	if forceCompact || b.csrMOff == nil || b.csrStale {
		b.compact()
	}
	// Pending holds a pass's worth of raw edges: let it go between passes.
	b.pending = nil

	g := b.freeze()
	b.finishSnapshot(g)
	return g
}

// markQueried flags the domains of fresh edges as queried this window.
func (b *Builder) markQueried(fresh []edge) {
	for _, e := range fresh {
		b.domainQueried[e.d()] = true
	}
}

// mergePending sorts and deduplicates the pending buffer, drops edges
// already present in base, merges the survivors into base (kept sorted)
// and into the overlay, and returns the fresh edges. When the overlay
// would pass a quarter of the base run, or there is no base CSR yet, the
// overlay is skipped and the CSR marked stale for the snapshot to
// rebuild. The returned slice aliases the pending buffer and is only
// valid until the next append.
func (b *Builder) mergePending() []edge {
	if len(b.pending) == 0 {
		return nil
	}
	p := b.pending
	sortEdges(p, b.nm, b.nd)
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
	if len(fresh) == 0 {
		return fresh
	}
	if b.csrMOff == nil || b.ovEdges+len(fresh) > (len(b.base)+len(fresh))/4+overlaySlackMin {
		b.mergeIntoBase(fresh)
		b.csrStale = true
		return fresh
	}
	// The base merge and the overlay's machine and domain sides write
	// disjoint state and only read fresh, so they run at once.
	b.ensureOverlay()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); b.overlayMachines(fresh) }()
	go func() { defer wg.Done(); b.overlayDomains(fresh) }()
	b.mergeIntoBase(fresh)
	wg.Wait()
	b.ovEdges += len(fresh)
	b.ovMut++
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

// overlayMachines folds fresh edges into the machine side of the per-node
// overlay adjacency, materializing a machine's base CSR row on first
// touch; overlayDomains is the same for the domain side.
func (b *Builder) overlayMachines(fresh []edge) {
	for _, e := range fresh {
		m := e.m()
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
		b.ovMAdj[slot] = append(b.ovMAdj[slot], e.d())
	}
}

func (b *Builder) overlayDomains(fresh []edge) {
	for _, e := range fresh {
		d := e.d()
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
		b.ovDAdj[slot] = append(b.ovDAdj[slot], e.m())
	}
}

func (b *Builder) ensureOverlay() {
	if b.ovM == nil {
		b.ovM = filledMinusOne(b.nm)
		b.ovD = filledMinusOne(b.nd)
		return
	}
	for len(b.ovM) < b.nm {
		b.ovM = append(b.ovM, -1)
	}
	for len(b.ovD) < b.nd {
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

// compact rebuilds both CSR directions from the sorted base run and drops
// the overlay. O(nodes + edges), amortized across many snapshots by the
// overlay growth threshold.
func (b *Builder) compact() {
	nm, nd, ne := b.nm, b.nd, len(b.base)
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
	b.csrStale = false
	b.ovMut++
}

// freeze assembles an immutable Graph over the current builder state.
// Everything shared with the builder is append-only or copied: name slabs
// become length-capped views, the base CSR is shared outright, and the
// small per-snapshot headers (overlay slots, IP outer slice, recent
// intern maps) are copied — or reused from the previous snapshot when
// nothing changed. Only the name table's part takes its lock: copying
// the names not yet published and re-taking the slab views.
func (b *Builder) freeze() *Graph {
	nm, nd := b.nm, b.nd
	prev := b.lastSnap

	b.mu.Lock()
	pub := b.pub.Load()
	// The names pub lacks are the recent ones plus, while a publish is
	// under way, the sealed ones. The previous snapshot's copy of them is
	// exact while nothing was interned or published since; either may
	// hold names past this snapshot's counts, which its lookups bound.
	mExtra, dExtra := unpublished(b.sealed.machine, b.machineRecent), unpublished(b.sealed.domain, b.domainRecent)
	if prev != nil && b.pubGen == b.frozenGen && len(b.machineIDs) == b.frozenMLen && len(b.domains) == b.frozenDLen {
		mExtra, dExtra = prev.machineExtra, prev.domainExtra
	}
	b.frozenGen, b.frozenMLen, b.frozenDLen = b.pubGen, len(b.machineIDs), len(b.domains)
	b.takeViewsLocked()
	b.mu.Unlock()

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
		machineIDs:   b.viewM[:nm:nm],
		domains:      b.viewD[:nd:nd],
		domainE2LD:   b.viewE2LD[:nd:nd],
		domainE2LDID: b.viewE2LDID[:nd:nd],
		numE2LDs:     b.numE2LDs,
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
		machineIndex: pub.machine,
		domainIndex:  pub.domain,
		machineExtra: mExtra,
		domainExtra:  dExtra,
	}
}

// unpublished copies the names not yet published, or returns nil when
// there are none.
func unpublished(sealed, recent map[string]int32) map[string]int32 {
	if len(sealed)+len(recent) == 0 {
		return nil
	}
	return mergeMaps(sealed, recent)
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

// finishSnapshot stamps g with its label base — the previous snapshot
// if it is labeled by now, else that snapshot's base, so an unlabeled
// one (a checkpoint's fold) is skipped — and records g as the one the
// next freeze reuses. The builder keeps no other snapshot: a labeled
// one has let go of its base.
func (b *Builder) finishSnapshot(g *Graph) {
	if base := b.lastSnap; base != nil {
		if !base.Labeled() {
			base = base.labelBase.Load()
		}
		g.labelBase.Store(base)
	}
	b.lastSnap = g
	b.frozenNM, b.frozenND = b.nm, b.nd
	b.frozenOvMut, b.frozenIPMut = b.ovMut, b.ipMut
}
