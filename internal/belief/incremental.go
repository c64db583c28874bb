package belief

import (
	"context"
	"math"
	"slices"
	"sync"

	"segugio/internal/graph"
)

// Pass modes reported in Result.Mode.
const (
	// ModeFull is a cold synchronous propagation over the whole graph.
	ModeFull = "full"
	// ModeResidual is an incremental pass: messages carried over from the
	// previous snapshot, re-propagation seeded from the dirty nodes and
	// driven by a residual priority queue.
	ModeResidual = "residual"
	// ModeCached means the engine already holds beliefs for this exact
	// graph version and no propagation ran.
	ModeCached = "cached"
)

// Engine runs loopy BP incrementally across a lineage of graph
// snapshots. It keeps the per-edge message state of the last pass keyed
// to the graph version; when the next snapshot arrives with an exact
// delta, only the neighborhoods reachable from the dirty domains are
// re-propagated (residual scheduling), which is O(affected) instead of
// O(iterations x edges). The engine escalates to a full batch pass when
// the delta is inexact (first snapshot, window rotation, history
// eviction), when the day changes, when the caller's last-seen version
// does not match the engine state, or when the previous residual pass
// exhausted its convergence budget.
//
// Engine is safe for concurrent use; passes are serialized internally.
type Engine struct {
	cfg Config

	mu sync.Mutex
	st *engineState
	// spare is the state retired by the previous pass; advance reuses
	// its array capacity so steady-state residual passes allocate
	// (almost) nothing.
	spare *engineState
	scr   engineScratch
}

// engineScratch holds the residual pass's reusable work buffers. They
// obey a dirty-clean discipline: every pass clears exactly the entries
// it touched, so no O(n) zeroing happens per pass.
type engineScratch struct {
	mark        []bool // per-domain, for dirty dedup
	resid       []float64
	touched     []bool
	touchedList []int32
	q           residQueue
}

func (s *engineScratch) size(nd, total int) {
	if len(s.mark) < nd {
		s.mark = make([]bool, nd)
	}
	if len(s.resid) < total {
		s.resid = make([]float64, total)
		s.touched = make([]bool, total)
	}
}

// NewEngine builds an engine. Zero cfg fields select the package
// defaults (see Config).
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Config returns the engine's effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// LastVersion returns the graph version of the engine's current state,
// if any. Callers use it as the `since` for the next SnapshotSince.
func (e *Engine) LastVersion() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == nil {
		return 0, false
	}
	return e.st.version, true
}

// Reset drops all persistent state; the next Run escalates to a full
// pass.
func (e *Engine) Reset() {
	e.mu.Lock()
	e.st = nil
	e.mu.Unlock()
}

// Run advances the engine to snapshot g at the given version. delta
// must be the graph delta relative to `since` (the version of the
// caller's previous pass), exactly as returned by SnapshotSince. The
// returned Result owns its belief slices; the engine's internal state
// is never aliased.
func (e *Engine) Run(g *graph.Graph, version, since uint64, delta graph.Delta) (*Result, error) {
	return e.RunContext(context.Background(), g, version, since, delta)
}

// RunContext is Run bounded by ctx: the full sweep checks it once per
// iteration, the residual drain every residCheckEvery updates. A
// cancelled pass returns the context's error and discards its partial
// message state — the engine keeps the previous snapshot's fixed point
// (or no state at all), never a half-propagated one, so the next pass
// re-advances or escalates cleanly.
func (e *Engine) RunContext(ctx context.Context, g *graph.Graph, version, since uint64, delta graph.Delta) (*Result, error) {
	if g == nil || !g.Labeled() {
		return nil, ErrUnlabeledGraph
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.st != nil && e.st.version == version && e.st.day == g.Day() {
		return e.st.result(ModeCached, 0, true, passStats{}), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.st == nil || !delta.Exact || since != e.st.version ||
		g.Day() != e.st.day || e.st.unconverged {
		ns := newEngineState(g, version, e.cfg)
		iters, conv, err := ns.runFull(ctx, e.cfg)
		if err != nil {
			return nil, err
		}
		e.st = ns
		return ns.result(ModeFull, iters, conv, passStats{}), nil
	}

	// Collect dirty domains: the delta's ids plus every index minted
	// since the previous snapshot (new domains are in the delta by
	// contract; the index sweep is a cheap belt-and-braces).
	nd := g.NumDomains()
	e.scr.size(nd, 0)
	mark := e.scr.mark
	dirty := make([]int32, 0, len(delta.IDs)+nd-e.st.nd)
	for _, d := range delta.IDs {
		if !mark[d] {
			mark[d] = true
			dirty = append(dirty, d)
		}
	}
	for d := e.st.nd; d < nd; d++ {
		if !mark[d] {
			mark[d] = true
			dirty = append(dirty, int32(d))
		}
	}
	for _, d := range dirty {
		mark[d] = false
	}

	dst := e.spare
	if dst == e.st {
		dst = nil
	}
	e.spare = nil
	ns, seeds, ok := e.st.advance(g, version, e.cfg, dirty, dst)
	if !ok {
		// The delta did not cover every structural change; rebuild.
		ns = newEngineState(g, version, e.cfg)
		iters, conv, err := ns.runFull(ctx, e.cfg)
		if err != nil {
			return nil, err
		}
		e.spare, e.st = e.st, ns
		return ns.result(ModeFull, iters, conv, passStats{}), nil
	}
	stats, conv, err := ns.runResidual(ctx, e.cfg, &e.scr, dirty, seeds)
	if err != nil {
		// Discard the half-propagated state: e.st (the previous fixed
		// point) stays current, and ns donates its array capacity to the
		// next advance.
		e.spare = ns
		return nil, err
	}
	e.spare, e.st = e.st, ns
	return ns.result(ModeResidual, 0, conv, stats), nil
}

// engineState is the persistent propagation state for one snapshot: the
// bipartite topology in both CSR directions (with each adjacency block
// sorted by neighbor id so state can be carried across snapshots by a
// linear merge), the per-edge messages, node priors, and beliefs.
type engineState struct {
	version uint64
	day     int

	nm, nd, ne int

	// mOff/dOff are CSR offsets (len n+1); mDom[p] is the domain of
	// machine-side edge p, dMac[q] the machine of domain-side edge q.
	// Both sides list neighbors in ascending id order.
	mOff, dOff []int32
	mDom, dMac []int32
	// Cross-index between the two edge orders.
	toDomainSide, toMachineSide []int32

	// m2d is indexed by domain-side position, d2m by machine-side
	// position, so each node reads its incoming messages contiguously.
	m2d, d2m []float64

	machinePrior, domainPrior []float64
	domBelief, macBelief      []float64

	// cursor is scratch for buildCrossIndex, kept to avoid re-allocating.
	cursor []int32

	// unconverged marks a residual pass that ran out of budget; the next
	// Run escalates to a full pass to restore the fixed point.
	unconverged bool
}

// newEngineState builds topology, priors, and uninformative messages
// for g. Beliefs are left zero; a pass fills them.
func newEngineState(g *graph.Graph, version uint64, cfg Config) *engineState {
	st := &engineState{
		version: version,
		day:     g.Day(),
		nm:      g.NumMachines(),
		nd:      g.NumDomains(),
		ne:      g.NumEdges(),
	}
	st.buildTopology(g)
	st.machinePrior = make([]float64, st.nm)
	for m := 0; m < st.nm; m++ {
		st.machinePrior[m] = prior(g.MachineLabel(int32(m)), cfg.PriorMalware)
	}
	st.domainPrior = make([]float64, st.nd)
	for d := 0; d < st.nd; d++ {
		st.domainPrior[d] = prior(g.DomainLabel(int32(d)), cfg.PriorMalware)
	}
	st.m2d = constSlice(st.ne, 0.5)
	st.d2m = constSlice(st.ne, 0.5)
	st.domBelief = make([]float64, st.nd)
	st.macBelief = make([]float64, st.nm)
	return st
}

// buildTopology materializes both CSR directions with each block sorted
// ascending. The graph's own adjacency order is not stable across
// snapshots (overlay rows append in arrival order, compaction re-sorts),
// so the engine canonicalizes: machine rows are sorted copies, and the
// domain side — filled by scanning machines in ascending order — comes
// out sorted for free because each (m,d) pair is unique.
func (st *engineState) buildTopology(g *graph.Graph) {
	st.mOff = make([]int32, st.nm+1)
	st.dOff = make([]int32, st.nd+1)
	st.mDom = make([]int32, st.ne)

	off := int32(0)
	for d := 0; d < st.nd; d++ {
		st.dOff[d] = off
		off += int32(g.DomainDegree(int32(d)))
	}
	st.dOff[st.nd] = off

	p := int32(0)
	for m := 0; m < st.nm; m++ {
		st.mOff[m] = p
		row := g.DomainsOf(int32(m))
		blk := st.mDom[p : int(p)+len(row)]
		copy(blk, row)
		if !slices.IsSorted(blk) {
			slices.Sort(blk)
		}
		p += int32(len(row))
	}
	st.mOff[st.nm] = p
	st.buildCrossIndex()
}

// buildCrossIndex derives dMac and the cross-index arrays from
// mOff/mDom/dOff alone — pure array arithmetic, no graph calls.
// Scanning machine-side edges in order fills each domain's block with
// machines ascending, which is the engine's canonical domain-side
// order.
func (st *engineState) buildCrossIndex() {
	st.dMac = reuseInt32(st.dMac, st.ne)
	st.toDomainSide = reuseInt32(st.toDomainSide, st.ne)
	st.toMachineSide = reuseInt32(st.toMachineSide, st.ne)
	st.cursor = reuseInt32(st.cursor, st.nd)
	cursor := st.cursor
	copy(cursor, st.dOff[:st.nd])
	m := int32(0)
	for p := int32(0); p < int32(st.ne); p++ {
		for p >= st.mOff[m+1] {
			m++
		}
		d := st.mDom[p]
		q := cursor[d]
		cursor[d]++
		st.dMac[q] = m
		st.toDomainSide[p] = q
		st.toMachineSide[q] = p
	}
}

// advance builds the state for the next snapshot in the lineage by
// splicing the previous state's arrays: unchanged spans are carried by
// bulk copies, changed nodes (dirty domains, machines adjacent to them,
// new nodes) get freshly merged blocks with new edges seeded at the
// uninformative message. Priors are refreshed for the dirty domains,
// for every machine adjacent to one (within a day, labels only move
// through the dirty set), and for new nodes. It returns the new state
// plus the machines to seed alongside the dirty domains; ok=false means
// the delta did not cover every structural change (a contract breach)
// and the caller must escalate to a full rebuild. The receiver is left
// untouched. dst, when non-nil, donates its array capacity (it must not
// share arrays with the receiver).
func (st *engineState) advance(g *graph.Graph, version uint64, cfg Config, dirty []int32, dst *engineState) (*engineState, []int32, bool) {
	ns := dst
	if ns == nil {
		ns = &engineState{}
	}
	old := *ns
	*ns = engineState{
		version: version,
		day:     g.Day(),
		nm:      g.NumMachines(),
		nd:      g.NumDomains(),
		ne:      g.NumEdges(),
	}

	// Sorted changed-domain list (Run already appended every new index).
	changedD := slices.Clone(dirty)
	slices.Sort(changedD)

	// Fresh sorted adjacency rows for the changed domains, concatenated
	// into one scratch buffer. Seed machines are collected on the way.
	dRowOff := make([]int32, len(changedD)+1)
	dRows := make([]int32, 0, 64)
	seenM := make([]bool, ns.nm)
	var seeds []int32
	for i, d := range changedD {
		dRowOff[i] = int32(len(dRows))
		dRows = append(dRows, g.MachinesOf(d)...)
		blk := dRows[dRowOff[i]:]
		if !slices.IsSorted(blk) {
			slices.Sort(blk)
		}
		for _, m := range blk {
			if !seenM[m] {
				seenM[m] = true
				seeds = append(seeds, m)
			}
		}
	}
	dRowOff[len(changedD)] = int32(len(dRows))

	// Machines whose adjacency changed: grown seeds plus new machines.
	// (Fresh edges only touch dirty domains, so any grown machine is a
	// seed; a violation surfaces as an offset mismatch below.)
	var changedM []int32
	for _, m := range seeds {
		if int(m) < st.nm {
			if int32(len(g.DomainsOf(m))) != st.mOff[m+1]-st.mOff[m] {
				changedM = append(changedM, m)
			}
		}
	}
	for m := st.nm; m < ns.nm; m++ {
		changedM = append(changedM, int32(m))
	}
	slices.Sort(changedM)
	mRowOff := make([]int32, len(changedM)+1)
	mRows := make([]int32, 0, 64)
	for i, m := range changedM {
		mRowOff[i] = int32(len(mRows))
		mRows = append(mRows, g.DomainsOf(m)...)
		blk := mRows[mRowOff[i]:]
		if !slices.IsSorted(blk) {
			slices.Sort(blk)
		}
	}
	mRowOff[len(changedM)] = int32(len(mRows))

	// Splice the domain side: dOff and the m2d messages (domain-side
	// blocks hold machines ascending, so old and new blocks merge by a
	// linear scan).
	ns.dOff = reuseInt32(old.dOff, ns.nd+1)
	ns.m2d = reuseFloat64(old.m2d, ns.ne)
	ok := true
	{
		shift, prev := int32(0), int32(0)
		span := func(hi int32) {
			o0, o1 := st.dOff[prev], st.dOff[hi]
			copy(ns.m2d[o0+shift:o1+shift], st.m2d[o0:o1])
			for d := prev; d < hi; d++ {
				ns.dOff[d] = st.dOff[d] + shift
			}
		}
		for i, d := range changedD {
			if d < int32(st.nd) {
				span(d)
			} else if prev < int32(st.nd) {
				span(int32(st.nd))
			}
			newRow := dRows[dRowOff[i]:dRowOff[i+1]]
			var base int32
			if d < int32(st.nd) {
				base = st.dOff[d] + shift
			} else {
				base = st.dOff[st.nd] + shift
			}
			if int(base)+len(newRow) > ns.ne {
				return nil, nil, false
			}
			ns.dOff[d] = base
			if d < int32(st.nd) {
				o, o1 := st.dOff[d], st.dOff[d+1]
				if int(o1-o) == len(newRow) {
					copy(ns.m2d[base:int(base)+len(newRow)], st.m2d[o:o1])
				} else {
					for j, m := range newRow {
						if o < o1 && st.dMac[o] == m {
							ns.m2d[base+int32(j)] = st.m2d[o]
							o++
						} else {
							ns.m2d[base+int32(j)] = 0.5
						}
					}
					if o != o1 {
						ok = false // an old edge vanished: not a lineage
					}
				}
				shift += int32(len(newRow)) - (o1 - st.dOff[d])
			} else {
				for j := range newRow {
					ns.m2d[base+int32(j)] = 0.5
				}
				shift += int32(len(newRow))
			}
			prev = d + 1
		}
		if prev < int32(st.nd) {
			span(int32(st.nd))
		}
		ns.dOff[ns.nd] = st.dOff[st.nd] + shift
		if ns.dOff[ns.nd] != int32(ns.ne) {
			ok = false
		}
	}
	if !ok {
		return nil, nil, false
	}

	// Splice the machine side: mOff, mDom (needed for the cross-index
	// rebuild), and the d2m messages.
	ns.mOff = reuseInt32(old.mOff, ns.nm+1)
	ns.mDom = reuseInt32(old.mDom, ns.ne)
	ns.d2m = reuseFloat64(old.d2m, ns.ne)
	{
		shift, prev := int32(0), int32(0)
		span := func(hi int32) {
			o0, o1 := st.mOff[prev], st.mOff[hi]
			copy(ns.d2m[o0+shift:o1+shift], st.d2m[o0:o1])
			copy(ns.mDom[o0+shift:o1+shift], st.mDom[o0:o1])
			for m := prev; m < hi; m++ {
				ns.mOff[m] = st.mOff[m] + shift
			}
		}
		for i, m := range changedM {
			if m < int32(st.nm) {
				span(m)
			} else if prev < int32(st.nm) {
				span(int32(st.nm))
			}
			newRow := mRows[mRowOff[i]:mRowOff[i+1]]
			var base int32
			if m < int32(st.nm) {
				base = st.mOff[m] + shift
			} else {
				base = st.mOff[st.nm] + shift
			}
			if int(base)+len(newRow) > ns.ne {
				return nil, nil, false
			}
			ns.mOff[m] = base
			copy(ns.mDom[base:int(base)+len(newRow)], newRow)
			if m < int32(st.nm) {
				o, o1 := st.mOff[m], st.mOff[m+1]
				if int(o1-o) == len(newRow) {
					copy(ns.d2m[base:int(base)+len(newRow)], st.d2m[o:o1])
				} else {
					for j, d := range newRow {
						if o < o1 && st.mDom[o] == d {
							ns.d2m[base+int32(j)] = st.d2m[o]
							o++
						} else {
							ns.d2m[base+int32(j)] = 0.5
						}
					}
					if o != o1 {
						ok = false
					}
				}
				shift += int32(len(newRow)) - (o1 - st.mOff[m])
			} else {
				for j := range newRow {
					ns.d2m[base+int32(j)] = 0.5
				}
				shift += int32(len(newRow))
			}
			prev = m + 1
		}
		if prev < int32(st.nm) {
			span(int32(st.nm))
		}
		ns.mOff[ns.nm] = st.mOff[st.nm] + shift
		if ns.mOff[ns.nm] != int32(ns.ne) {
			ok = false
		}
	}
	if !ok {
		return nil, nil, false
	}
	ns.dMac = old.dMac
	ns.toDomainSide = old.toDomainSide
	ns.toMachineSide = old.toMachineSide
	ns.cursor = old.cursor
	ns.buildCrossIndex()

	// Priors and beliefs: copy, extend for new nodes.
	ns.domainPrior = reuseFloat64(old.domainPrior, ns.nd)
	copy(ns.domainPrior, st.domainPrior)
	for d := st.nd; d < ns.nd; d++ {
		ns.domainPrior[d] = prior(g.DomainLabel(int32(d)), cfg.PriorMalware)
	}
	ns.machinePrior = reuseFloat64(old.machinePrior, ns.nm)
	copy(ns.machinePrior, st.machinePrior)
	for m := st.nm; m < ns.nm; m++ {
		ns.machinePrior[m] = prior(g.MachineLabel(int32(m)), cfg.PriorMalware)
	}
	ns.domBelief = reuseFloat64(old.domBelief, ns.nd)
	copy(ns.domBelief, st.domBelief)
	ns.macBelief = reuseFloat64(old.macBelief, ns.nm)
	copy(ns.macBelief, st.macBelief)

	// Refresh priors on the dirty frontier (the seeds collected above are
	// exactly the machines adjacent to a dirty domain).
	for _, d := range dirty {
		ns.domainPrior[d] = prior(g.DomainLabel(d), cfg.PriorMalware)
	}
	for _, m := range seeds {
		ns.machinePrior[m] = prior(g.MachineLabel(m), cfg.PriorMalware)
	}
	// New nodes start from their carried (uninformative) messages so a
	// budget-starved pass still leaves them with a sane belief.
	for d := st.nd; d < ns.nd; d++ {
		ns.domBelief[d] = ns.domainBelief1(int32(d))
	}
	for m := st.nm; m < ns.nm; m++ {
		ns.macBelief[m] = ns.machineBelief1(int32(m))
	}
	return ns, seeds, true
}

// passStats carries residual-pass accounting into Result.
type passStats struct {
	seeds     int
	updates   int
	peakQueue int
}

// result snapshots the state's beliefs into a caller-owned Result.
func (st *engineState) result(mode string, iters int, conv bool, ps passStats) *Result {
	return &Result{
		DomainBelief:  slices.Clone(st.domBelief),
		MachineBelief: slices.Clone(st.macBelief),
		Iterations:    iters,
		Converged:     conv,
		Mode:          mode,
		Seeds:         ps.seeds,
		Updates:       ps.updates,
		PeakQueue:     ps.peakQueue,
	}
}

// runFull is the synchronous batch schedule: alternate full
// machines->domains and domains->machines sweeps until the largest
// domain-belief move drops below Tolerance or MaxIterations is reached.
// This is the propagation core Propagate wraps. ctx is checked once per
// iteration; a cancelled pass returns the context error and the caller
// must discard the state (its messages are mid-sweep).
func (st *engineState) runFull(ctx context.Context, cfg Config) (int, bool, error) {
	psiSame := 0.5 + cfg.Epsilon
	psiDiff := 0.5 - cfg.Epsilon
	newMsg := make([]float64, st.ne)
	prevDom := make([]float64, st.nd)
	check := ctx.Done() != nil

	iter := 0
	converged := false
	for ; iter < cfg.MaxIterations; iter++ {
		if check {
			if err := ctx.Err(); err != nil {
				return iter, false, err
			}
		}
		// Machines -> domains.
		for m := 0; m < st.nm; m++ {
			p0, p1 := st.mOff[m], st.mOff[m+1]
			s0, s1 := 0.0, 0.0
			for p := p0; p < p1; p++ {
				s0 += math.Log(1 - st.d2m[p])
				s1 += math.Log(st.d2m[p])
			}
			phi1 := st.machinePrior[m]
			for p := p0; p < p1; p++ {
				mu0 := (1 - phi1) * math.Exp(s0-math.Log(1-st.d2m[p]))
				mu1 := phi1 * math.Exp(s1-math.Log(st.d2m[p]))
				// Apply the edge potential and normalize.
				out0 := mu0*psiSame + mu1*psiDiff
				out1 := mu0*psiDiff + mu1*psiSame
				v := clamp(out1 / (out0 + out1))
				q := st.toDomainSide[p]
				newMsg[q] = cfg.Damping*st.m2d[q] + (1-cfg.Damping)*v
			}
		}
		st.m2d, newMsg = newMsg, st.m2d

		// Domains -> machines.
		for d := 0; d < st.nd; d++ {
			q0, q1 := st.dOff[d], st.dOff[d+1]
			s0, s1 := 0.0, 0.0
			for q := q0; q < q1; q++ {
				s0 += math.Log(1 - st.m2d[q])
				s1 += math.Log(st.m2d[q])
			}
			phi1 := st.domainPrior[d]
			for q := q0; q < q1; q++ {
				mu0 := (1 - phi1) * math.Exp(s0-math.Log(1-st.m2d[q]))
				mu1 := phi1 * math.Exp(s1-math.Log(st.m2d[q]))
				out0 := mu0*psiSame + mu1*psiDiff
				out1 := mu0*psiDiff + mu1*psiSame
				v := clamp(out1 / (out0 + out1))
				p := st.toMachineSide[q]
				newMsg[p] = cfg.Damping*st.d2m[p] + (1-cfg.Damping)*v
			}
		}
		st.d2m, newMsg = newMsg, st.d2m

		// Beliefs and convergence check.
		copy(prevDom, st.domBelief)
		for d := 0; d < st.nd; d++ {
			st.domBelief[d] = st.domainBelief1(int32(d))
		}
		maxDelta := 0.0
		for d := 0; d < st.nd; d++ {
			if delta := math.Abs(st.domBelief[d] - prevDom[d]); delta > maxDelta {
				maxDelta = delta
			}
		}
		if iter > 0 && maxDelta < cfg.Tolerance {
			converged = true
			iter++
			break
		}
	}

	for m := 0; m < st.nm; m++ {
		st.macBelief[m] = st.machineBelief1(int32(m))
	}
	return iter, converged, nil
}

// residEntry is one scheduled node in the residual queue. Nodes are
// encoded as a single id: domains are [0, nd), machines are nd+m.
type residEntry struct {
	res float64
	id  int32
}

// residQueue is a binary max-heap by residual. Hand-rolled (rather than
// container/heap) to keep the hot path free of interface boxing.
type residQueue []residEntry

func (q *residQueue) push(e residEntry) {
	*q = append(*q, e)
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].res >= s[i].res {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (q *residQueue) pop() residEntry {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*q = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && s[l].res > s[big].res {
			big = l
		}
		if r < n && s[r].res > s[big].res {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	return top
}

// residCheckEvery is how many residual node updates run between
// context checks in a cancellable pass.
const residCheckEvery = 1024

// runResidual re-propagates from the dirty frontier. Each scheduled
// node recomputes its outgoing messages from its current incoming ones
// (asynchronous updates); receivers whose strongest incoming change
// reaches Tolerance are queued by that residual, largest first. The
// pass stops when the queue drains (converged) or after
// MaxIterations x (nm+nd) node updates (budget exhausted — the next Run
// escalates to a full pass). Beliefs are recomputed for touched nodes
// only.
//
// ctx is checked every residCheckEvery updates; on cancellation the
// drain stops, the scratch's dirty-clean invariant is restored, and
// the context error is returned — the caller must discard the state.
func (st *engineState) runResidual(ctx context.Context, cfg Config, scr *engineScratch, dirty, seeds []int32) (passStats, bool, error) {
	nd32 := int32(st.nd)
	scr.size(0, st.nd+st.nm)
	resid := scr.resid
	touched := scr.touched
	touchedList := scr.touchedList[:0]
	q := scr.q[:0]

	touch := func(id int32) {
		if !touched[id] {
			touched[id] = true
			touchedList = append(touchedList, id)
		}
	}
	seed := func(id int32) {
		touch(id)
		resid[id] = math.Inf(1)
		q.push(residEntry{res: math.Inf(1), id: id})
	}
	for _, d := range dirty {
		seed(d)
	}
	for _, m := range seeds {
		seed(nd32 + m)
	}

	ps := passStats{seeds: len(q), peakQueue: len(q)}
	budget := cfg.MaxIterations * (st.nd + st.nm)
	if budget < len(q) {
		budget = len(q)
	}

	bump := func(id int32, diff float64) {
		touch(id)
		if diff > resid[id] {
			resid[id] = diff
			if diff >= cfg.Tolerance {
				q.push(residEntry{res: diff, id: id})
				if len(q) > ps.peakQueue {
					ps.peakQueue = len(q)
				}
			}
		}
	}

	psiSame := 0.5 + cfg.Epsilon
	psiDiff := 0.5 - cfg.Epsilon
	check := ctx.Done() != nil
	var cancelled error
	for len(q) > 0 && ps.updates < budget {
		if check && ps.updates%residCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				cancelled = err
				break
			}
		}
		e := q.pop()
		// Stale entry: the node was re-queued with a larger residual, or
		// already processed since this entry was pushed.
		if resid[e.id] != e.res || e.res < cfg.Tolerance {
			continue
		}
		resid[e.id] = 0
		ps.updates++
		if e.id < nd32 {
			// Domain e.id: recompute outgoing d->m messages.
			d := e.id
			q0, q1 := st.dOff[d], st.dOff[d+1]
			s0, s1 := 0.0, 0.0
			for qq := q0; qq < q1; qq++ {
				s0 += math.Log(1 - st.m2d[qq])
				s1 += math.Log(st.m2d[qq])
			}
			phi1 := st.domainPrior[d]
			for qq := q0; qq < q1; qq++ {
				mu0 := (1 - phi1) * math.Exp(s0-math.Log(1-st.m2d[qq]))
				mu1 := phi1 * math.Exp(s1-math.Log(st.m2d[qq]))
				out0 := mu0*psiSame + mu1*psiDiff
				out1 := mu0*psiDiff + mu1*psiSame
				v := clamp(out1 / (out0 + out1))
				p := st.toMachineSide[qq]
				nv := cfg.Damping*st.d2m[p] + (1-cfg.Damping)*v
				if diff := math.Abs(nv - st.d2m[p]); diff > 0 {
					st.d2m[p] = nv
					bump(nd32+st.dMac[qq], diff)
				}
			}
		} else {
			// Machine e.id-nd: recompute outgoing m->d messages.
			m := e.id - nd32
			p0, p1 := st.mOff[m], st.mOff[m+1]
			s0, s1 := 0.0, 0.0
			for p := p0; p < p1; p++ {
				s0 += math.Log(1 - st.d2m[p])
				s1 += math.Log(st.d2m[p])
			}
			phi1 := st.machinePrior[m]
			for p := p0; p < p1; p++ {
				mu0 := (1 - phi1) * math.Exp(s0-math.Log(1-st.d2m[p]))
				mu1 := phi1 * math.Exp(s1-math.Log(st.d2m[p]))
				out0 := mu0*psiSame + mu1*psiDiff
				out1 := mu0*psiDiff + mu1*psiSame
				v := clamp(out1 / (out0 + out1))
				qq := st.toDomainSide[p]
				nv := cfg.Damping*st.m2d[qq] + (1-cfg.Damping)*v
				if diff := math.Abs(nv - st.m2d[qq]); diff > 0 {
					st.m2d[qq] = nv
					bump(st.mDom[p], diff)
				}
			}
		}
	}

	converged := cancelled == nil
	if converged {
		for _, e := range q {
			if resid[e.id] == e.res && e.res >= cfg.Tolerance {
				converged = false
				break
			}
		}
		if !converged {
			st.unconverged = true
		}
	}

	// Refresh beliefs on the touched set, then restore the scratch's
	// dirty-clean invariant (clear only what this pass wrote). On
	// cancellation the belief refresh is wasted (the caller discards the
	// state) but the scratch cleanup is mandatory: the next pass reuses
	// it.
	for _, id := range touchedList {
		if id < nd32 {
			st.domBelief[id] = st.domainBelief1(id)
		} else {
			st.macBelief[id-nd32] = st.machineBelief1(id - nd32)
		}
		resid[id] = 0
		touched[id] = false
	}
	scr.touchedList = touchedList[:0]
	scr.q = q[:0]
	return ps, converged, cancelled
}

// domainBelief1 computes one domain's marginal from its current
// incoming messages.
func (st *engineState) domainBelief1(d int32) float64 {
	s0 := math.Log(1 - st.domainPrior[d])
	s1 := math.Log(st.domainPrior[d])
	for q := st.dOff[d]; q < st.dOff[d+1]; q++ {
		s0 += math.Log(1 - st.m2d[q])
		s1 += math.Log(st.m2d[q])
	}
	return clamp(1 / (1 + math.Exp(s0-s1)))
}

// machineBelief1 computes one machine's marginal from its current
// incoming messages.
func (st *engineState) machineBelief1(m int32) float64 {
	s0 := math.Log(1 - st.machinePrior[m])
	s1 := math.Log(st.machinePrior[m])
	for p := st.mOff[m]; p < st.mOff[m+1]; p++ {
		s0 += math.Log(1 - st.d2m[p])
		s1 += math.Log(st.d2m[p])
	}
	return clamp(1 / (1 + math.Exp(s0-s1)))
}

// reuseInt32 returns buf resized to n when its capacity suffices, or a
// fresh slice otherwise. Contents are unspecified.
func reuseInt32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// reuseFloat64 is reuseInt32 for float64 slices.
func reuseFloat64(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}
