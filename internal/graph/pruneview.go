package graph

import (
	"segugio/internal/dnsutil"
)

// PrunedView applies a frozen PrunePlan to a later snapshot of the same
// builder lineage, restricted to a set of target domains, without
// materializing anything. It answers exactly the queries feature
// extraction makes — target resolution, the surviving machines of a
// target, and label-hiding machine labels — as the real pruned graph at
// the live snapshot would, under one approximation: keep decisions for
// nodes that existed when the plan was computed are frozen (targets and
// nodes interned since get fresh decisions against the plan's frozen
// thresholds). PrunePlan.StaleFor bounds how far the graph may drift
// before a caller must recompute the plan instead.
//
// Construction resolves everything eagerly in O(2-hop neighborhood of
// the targets); the built view is immutable and safe for concurrent use.
type PrunedView struct {
	live *Graph
	plan *PrunePlan

	targets    map[string]int32
	machinesOf map[int32][]int32
	// cnt holds, per machine appearing in a target's surviving-machine
	// list, the pruned-graph label-derivation counts {cntMalware,
	// cntNonBenign} over surviving domains.
	cnt map[int32][2]int32
}

// NewPrunedView resolves the targets against live under plan's frozen
// decisions. Targets absent from live or pruned away resolve to
// not-found, mirroring VectorsFor's ok=false on a materialized pruned
// graph. live must be labeled.
func NewPrunedView(live *Graph, plan *PrunePlan, targets []string) *PrunedView {
	v := &PrunedView{
		live:       live,
		plan:       plan,
		targets:    make(map[string]int32, len(targets)),
		machinesOf: make(map[int32][]int32, len(targets)),
		cnt:        make(map[int32][2]int32),
	}

	isTarget := make(map[int32]bool, len(targets))
	targetIdx := make([]int32, 0, len(targets))
	for _, name := range targets {
		if d, ok := live.DomainIndex(name); ok {
			if !isTarget[d] {
				targetIdx = append(targetIdx, d)
			}
			isTarget[d] = true
		}
	}

	keepMMemo := make(map[int32]bool)
	machineKeep := func(m int32) bool {
		if int(m) < len(plan.keepM) {
			return plan.keepM[m]
		}
		if k, ok := keepMMemo[m]; ok {
			return k
		}
		k := v.freshMachineKeep(m)
		keepMMemo[m] = k
		return k
	}

	// An e2LD the plan counted keeps its frozen count. One interned since
	// is counted on live, over the domains interned since (an e2LD is never
	// younger than its domains), grouped once on first need.
	var freshE2LDs map[int32][]int32
	e2ldMemo := make(map[int32]int)
	e2ldMachines := func(e int32) int {
		if int(e) < len(plan.e2ldMachines) {
			return int(plan.e2ldMachines[e])
		}
		if n, ok := e2ldMemo[e]; ok {
			return n
		}
		if freshE2LDs == nil {
			freshE2LDs = make(map[int32][]int32)
			for d := len(plan.keepD); d < live.NumDomains(); d++ {
				if e := live.domainE2LDID[d]; int(e) >= len(plan.e2ldMachines) {
					freshE2LDs[e] = append(freshE2LDs[e], int32(d))
				}
			}
		}
		seen := make(map[int32]struct{})
		for _, d := range freshE2LDs[e] {
			for _, m := range live.MachinesOf(d) {
				if machineKeep(m) {
					seen[m] = struct{}{}
				}
			}
		}
		e2ldMemo[e] = len(seen)
		return len(seen)
	}

	keepDMemo := make(map[int32]bool)
	domainKeep := func(d int32) bool {
		if int(d) < len(plan.keepD) && !isTarget[d] {
			return plan.keepD[d]
		}
		if k, ok := keepDMemo[d]; ok {
			return k
		}
		k := v.freshDomainKeep(d, machineKeep, e2ldMachines)
		keepDMemo[d] = k
		return k
	}

	for _, name := range targets {
		d, ok := live.DomainIndex(name)
		if !ok || !domainKeep(d) {
			continue
		}
		v.targets[name] = d
		if _, done := v.machinesOf[d]; done {
			continue
		}
		all := live.MachinesOf(d)
		ms := make([]int32, 0, len(all))
		for _, m := range all {
			if machineKeep(m) {
				ms = append(ms, m)
			}
		}
		v.machinesOf[d] = ms
		for _, m := range ms {
			if _, done := v.cnt[m]; done {
				continue
			}
			var mal, nonBenign int32
			for _, dd := range live.DomainsOf(m) {
				if !domainKeep(dd) {
					continue
				}
				switch live.domainLabel[dd] {
				case LabelMalware:
					mal++
					nonBenign++
				case LabelUnknown:
					nonBenign++
				}
			}
			v.cnt[m] = [2]int32{mal, nonBenign}
		}
	}
	return v
}

// freshMachineKeep evaluates the prober heuristic and R1/R2 for a
// machine interned after the plan, against the plan's frozen thetaD.
func (v *PrunedView) freshMachineKeep(m int32) bool {
	p := v.plan
	if p.prober != nil && machineIsProber(v.live, m, *p.prober) {
		return false
	}
	if p.disablePrune {
		return true
	}
	deg := v.live.MachineDegree(m)
	if deg >= p.thetaD {
		return false
	}
	if deg <= p.cfg.MaxInactiveDegree && v.live.machineLabel[m] != LabelMalware {
		return false
	}
	return true
}

// freshDomainKeep evaluates R4 then R3 for a target or newly interned
// domain, against the plan's frozen thetaM and its e2LD's machine count.
func (v *PrunedView) freshDomainKeep(d int32, machineKeep func(int32) bool, e2ldMachines func(int32) int) bool {
	p := v.plan
	if p.disablePrune {
		return true
	}
	if e2ldMachines(v.live.domainE2LDID[d]) >= p.thetaM {
		return false
	}
	if v.live.domainLabel[d] == LabelMalware {
		return true
	}
	deg := 0
	for _, m := range v.live.MachinesOf(d) {
		if machineKeep(m) {
			deg++
		}
	}
	return deg >= p.cfg.MinDomainMachines
}

// Labeled reports true: views are only built over labeled snapshots.
func (v *PrunedView) Labeled() bool { return true }

// Day returns the live snapshot's observation day.
func (v *PrunedView) Day() int { return v.live.day }

// DomainName returns the name of domain node d in the live index space.
func (v *PrunedView) DomainName(d int32) string { return v.live.DomainName(d) }

// DomainE2LD returns the effective 2LD of domain node d.
func (v *PrunedView) DomainE2LD(d int32) string { return v.live.DomainE2LD(d) }

// DomainIPs returns the resolved addresses of domain node d.
func (v *PrunedView) DomainIPs(d int32) []dnsutil.IPv4 { return v.live.DomainIPs(d) }

// DomainIndex resolves a target domain name; names outside the resolved
// target set (including pruned-away targets) report not-found.
func (v *PrunedView) DomainIndex(name string) (int32, bool) {
	d, ok := v.targets[name]
	return d, ok
}

// MachinesOf returns the surviving machines querying target domain d.
func (v *PrunedView) MachinesOf(d int32) []int32 { return v.machinesOf[d] }

// MachineLabelHiding mirrors Graph.MachineLabelHiding over the view's
// pruned-graph label counts.
func (v *PrunedView) MachineLabelHiding(m, d int32) Label {
	c := v.cnt[m]
	mal, nonBenign := c[0], c[1]
	switch v.live.domainLabel[d] {
	case LabelMalware:
		mal--
		nonBenign--
	case LabelUnknown:
		nonBenign--
	}
	switch {
	case mal > 0:
		return LabelMalware
	case nonBenign == 0:
		return LabelBenign
	default:
		return LabelUnknown
	}
}
