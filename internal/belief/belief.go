// Package belief implements loopy belief propagation over the
// machine-domain bipartite graph — the graph-inference baseline Segugio is
// compared against in Section I (Manadhata et al. [6], and Polonium's
// file-machine variant [17]). Nodes carry a binary hidden state
// (benign/malware); labeled nodes get strong priors, unknown nodes
// uninformative ones; edges carry a homophily potential ("infected
// machines talk to malware domains"). After message passing, each unknown
// domain's marginal belief of being malware is its score.
//
// The paper reports that this approach is both less accurate than
// Segugio's feature-based classifier (it cannot exploit domain-activity or
// IP-abuse evidence) and far more expensive (hours vs. minutes per
// ISP-day). The benchmarks in this repository reproduce that comparison.
package belief

import (
	"errors"
	"math"
	"slices"

	"segugio/internal/graph"
)

// Config parameterizes the propagation. Zero values select the documented
// defaults.
type Config struct {
	// MaxIterations bounds the message-passing rounds (default 15).
	MaxIterations int
	// Epsilon is the homophily strength: the edge potential is
	// [[0.5+e, 0.5-e], [0.5-e, 0.5+e]] (default 0.02, Polonium's choice
	// of a weak homophilic coupling).
	Epsilon float64
	// PriorMalware is the malware-state prior of malware-labeled nodes
	// (default 0.99); benign-labeled nodes get 1-PriorMalware; unknown
	// nodes get 0.5.
	PriorMalware float64
	// Damping blends each new message with the previous one to tame
	// oscillation on loopy graphs. Zero (the default) disables damping;
	// weak bipartite potentials converge without it.
	Damping float64
	// Tolerance stops iteration early when no belief moves more than this
	// between rounds (default 1e-4).
	Tolerance float64
}

func (c Config) withDefaults() Config {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 15
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.02
	}
	if c.PriorMalware <= 0 || c.PriorMalware >= 1 {
		c.PriorMalware = 0.99
	}
	if c.Damping < 0 || c.Damping >= 1 {
		c.Damping = 0
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-4
	}
	return c
}

// Result holds the posterior marginals.
type Result struct {
	// DomainBelief[d] is the malware marginal of domain node d.
	DomainBelief []float64
	// MachineBelief[m] is the malware marginal of machine node m.
	MachineBelief []float64
	// Iterations actually run, and whether the tolerance was reached
	// within budget.
	Iterations int
	Converged  bool
}

// ErrUnlabeledGraph is returned when the graph has no labels: without
// priors there is nothing to propagate.
var ErrUnlabeledGraph = errors.New("belief: graph is not labeled")

const msgFloor = 1e-9

// Propagate runs sum-product loopy BP from scratch and returns the
// marginals.
func Propagate(g *graph.Graph, cfg Config) (*Result, error) {
	if !g.Labeled() {
		return nil, ErrUnlabeledGraph
	}
	cfg = cfg.withDefaults()
	st := newState(g, cfg)
	iters, conv := st.run(cfg)
	return &Result{
		DomainBelief:  st.domBelief,
		MachineBelief: st.macBelief,
		Iterations:    iters,
		Converged:     conv,
	}, nil
}

// state is the propagation state of one graph: the bipartite topology in
// both CSR directions, the per-edge messages, node priors, and beliefs.
type state struct {
	nm, nd, ne int

	// mOff/dOff are CSR offsets (len n+1) into the machine-side and
	// domain-side edge orders; both list neighbors in ascending id order.
	mOff, dOff []int32
	// Cross-index between the two edge orders.
	toDomainSide, toMachineSide []int32

	// m2d is indexed by domain-side position, d2m by machine-side
	// position, so each node reads its incoming messages contiguously.
	m2d, d2m []float64

	machinePrior, domainPrior []float64
	domBelief, macBelief      []float64
}

// newState builds topology, priors, and uninformative messages for g.
// Beliefs are left zero; run fills them.
func newState(g *graph.Graph, cfg Config) *state {
	st := &state{
		nm: g.NumMachines(),
		nd: g.NumDomains(),
		ne: g.NumEdges(),
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

// buildTopology lays out both CSR directions with each block sorted
// ascending, so the message sums run in one order whatever the graph's
// own adjacency order (overlay rows append in arrival order, compaction
// re-sorts). Machine rows are sorted copies; domain-side positions,
// assigned by scanning machine-side edges in order, come out in
// ascending machine order for free because each (m,d) pair is unique.
func (st *state) buildTopology(g *graph.Graph) {
	st.mOff = make([]int32, st.nm+1)
	st.dOff = make([]int32, st.nd+1)
	mDom := make([]int32, st.ne)

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
		blk := mDom[p : int(p)+len(row)]
		copy(blk, row)
		if !slices.IsSorted(blk) {
			slices.Sort(blk)
		}
		p += int32(len(row))
	}
	st.mOff[st.nm] = p

	st.toDomainSide = make([]int32, st.ne)
	st.toMachineSide = make([]int32, st.ne)
	cursor := slices.Clone(st.dOff[:st.nd])
	m := 0
	for p := int32(0); p < int32(st.ne); p++ {
		for p >= st.mOff[m+1] {
			m++
		}
		d := mDom[p]
		q := cursor[d]
		cursor[d]++
		st.toDomainSide[p] = q
		st.toMachineSide[q] = p
	}
}

// run is the synchronous schedule: alternate full machines->domains and
// domains->machines sweeps until the largest domain-belief move drops
// below Tolerance or MaxIterations is reached. It returns the iterations
// run and whether the tolerance was reached.
func (st *state) run(cfg Config) (int, bool) {
	psiSame := 0.5 + cfg.Epsilon
	psiDiff := 0.5 - cfg.Epsilon
	newMsg := make([]float64, st.ne)
	prevDom := make([]float64, st.nd)

	iter := 0
	converged := false
	for ; iter < cfg.MaxIterations; iter++ {
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
			st.domBelief[d] = st.domainBelief(d)
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
		st.macBelief[m] = st.machineBelief(m)
	}
	return iter, converged
}

// domainBelief computes one domain's marginal from its current incoming
// messages.
func (st *state) domainBelief(d int) float64 {
	s0 := math.Log(1 - st.domainPrior[d])
	s1 := math.Log(st.domainPrior[d])
	for q := st.dOff[d]; q < st.dOff[d+1]; q++ {
		s0 += math.Log(1 - st.m2d[q])
		s1 += math.Log(st.m2d[q])
	}
	return clamp(1 / (1 + math.Exp(s0-s1)))
}

// machineBelief computes one machine's marginal from its current
// incoming messages.
func (st *state) machineBelief(m int) float64 {
	s0 := math.Log(1 - st.machinePrior[m])
	s1 := math.Log(st.machinePrior[m])
	for p := st.mOff[m]; p < st.mOff[m+1]; p++ {
		s0 += math.Log(1 - st.d2m[p])
		s1 += math.Log(st.d2m[p])
	}
	return clamp(1 / (1 + math.Exp(s0-s1)))
}

func prior(l graph.Label, priorMalware float64) float64 {
	switch l {
	case graph.LabelMalware:
		return priorMalware
	case graph.LabelBenign:
		return 1 - priorMalware
	default:
		return 0.5
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) {
		return 0.5
	}
	if v < msgFloor {
		return msgFloor
	}
	if v > 1-msgFloor {
		return 1 - msgFloor
	}
	return v
}

func constSlice(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
