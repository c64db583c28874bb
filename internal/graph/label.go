package graph

import (
	"segugio/internal/intel"
)

// LabelSources carries the ground truth used to seed node labels (paper
// Section II-A1).
type LabelSources struct {
	// Blacklist supplies known malware-control domains; the full domain
	// string is matched.
	Blacklist *intel.Blacklist
	// Whitelist supplies trusted e2LDs; a domain is benign when its
	// effective 2LD is whitelisted.
	Whitelist *intel.Whitelist
	// AsOf restricts blacklist knowledge to entries listed on or before
	// this day, so experiments never leak future ground truth.
	AsOf int
	// Hidden lists domains whose ground-truth label must be withheld:
	// they stay LabelUnknown and machine labels are derived as if their
	// nature were unknown. The train/test protocol hides the test set this
	// way (paper Section IV-A).
	Hidden map[string]struct{}
}

// LabelStats summarizes the labeling outcome.
type LabelStats struct {
	MalwareDomains int
	BenignDomains  int
	UnknownDomains int
	MalwareMachine int
	BenignMachine  int
	UnknownMachine int
	HiddenDomains  int
}

// ApplyLabels assigns domain labels from the ground-truth sources and
// derives machine labels: a machine is malware when it queries at least
// one malware-labeled domain, benign when every queried domain is
// benign-labeled, unknown otherwise. It may be called again to relabel
// (e.g. with a different Hidden set).
//
// On a streaming snapshot whose Builder was told (via MarkLabeled) that
// an earlier snapshot is labeled with the same sources, labels are
// relabeled incrementally: prior label state is copied and only domains
// interned since and machines with fresh edges are recomputed.
func (g *Graph) ApplyLabels(src LabelSources) LabelStats {
	base := g.labelBase
	g.labelBase = nil
	if base != nil && g.canRelabelIncrementally(base, src) {
		g.relabelDelta(base, src)
	} else {
		g.relabelFull(src)
	}
	g.labeledAsOf = src.AsOf
	g.labelsApplied = true
	g.labelSrc = src
	return g.stats
}

// canRelabelIncrementally reports whether base's labels are reusable as a
// starting point: same source objects and cutoff, no hidden sets (the
// hidden set is experiment machinery, not a daemon path), same day.
func (g *Graph) canRelabelIncrementally(base *Graph, src LabelSources) bool {
	return base.labelsApplied &&
		base.day == g.day &&
		src.Hidden == nil && base.labelSrc.Hidden == nil &&
		src.Blacklist == base.labelSrc.Blacklist &&
		src.Whitelist == base.labelSrc.Whitelist &&
		src.AsOf == base.labelSrc.AsOf
}

func (g *Graph) labelFor(d int, src LabelSources, stats *LabelStats) Label {
	label := LabelUnknown
	if _, hidden := src.Hidden[g.domains[d]]; hidden {
		stats.HiddenDomains++
	} else if src.Blacklist != nil && src.Blacklist.Contains(g.domains[d], src.AsOf) {
		label = LabelMalware
	} else if src.Whitelist != nil && src.Whitelist.ContainsE2LD(g.domainE2LD[d]) {
		label = LabelBenign
	}
	switch label {
	case LabelMalware:
		stats.MalwareDomains++
	case LabelBenign:
		stats.BenignDomains++
	default:
		stats.UnknownDomains++
	}
	return label
}

func (g *Graph) relabelFull(src LabelSources) {
	nd, nm := len(g.domains), len(g.machineIDs)
	if len(g.domainLabel) != nd {
		g.domainLabel = make([]Label, nd)
	}
	if len(g.machineLabel) != nm {
		g.machineLabel = make([]Label, nm)
		g.cntMalware = make([]int32, nm)
		g.cntNonBenign = make([]int32, nm)
	}
	var stats LabelStats
	for d := range g.domains {
		g.domainLabel[d] = g.labelFor(d, src, &stats)
	}
	g.recomputeMachineLabels()
	for m := range g.machineIDs {
		switch g.machineLabel[m] {
		case LabelMalware:
			stats.MalwareMachine++
		case LabelBenign:
			stats.BenignMachine++
		default:
			stats.UnknownMachine++
		}
	}
	g.stats = stats
}

// relabelDelta copies base's label state and recomputes only the domains
// interned since base and the machines the Builder recorded as dirty
// (fresh edges or newly interned). LabelStats are carried forward and
// adjusted for exactly the recomputed nodes.
func (g *Graph) relabelDelta(base *Graph, src LabelSources) {
	nd, nm := len(g.domains), len(g.machineIDs)
	baseND, baseNM := len(base.domains), len(base.machineIDs)
	stats := base.stats

	dl := make([]Label, nd)
	copy(dl, base.domainLabel)
	ml := make([]Label, nm)
	copy(ml, base.machineLabel)
	cm := make([]int32, nm)
	copy(cm, base.cntMalware)
	cnb := make([]int32, nm)
	copy(cnb, base.cntNonBenign)
	g.domainLabel, g.machineLabel, g.cntMalware, g.cntNonBenign = dl, ml, cm, cnb

	for d := baseND; d < nd; d++ {
		dl[d] = g.labelFor(d, src, &stats)
	}

	for _, m := range g.labelDirtyMachines {
		old := LabelUnknown
		counted := int(m) < baseNM
		if counted {
			old = base.machineLabel[m]
		}
		var mal, nonBenign int32
		adj := g.DomainsOf(m)
		for _, d := range adj {
			switch dl[d] {
			case LabelMalware:
				mal++
				nonBenign++
			case LabelUnknown:
				nonBenign++
			}
		}
		cm[m], cnb[m] = mal, nonBenign
		label := LabelUnknown
		switch {
		case mal > 0:
			label = LabelMalware
		case nonBenign == 0 && len(adj) > 0:
			label = LabelBenign
		}
		ml[m] = label
		if counted {
			switch old {
			case LabelMalware:
				stats.MalwareMachine--
			case LabelBenign:
				stats.BenignMachine--
			default:
				stats.UnknownMachine--
			}
		}
		switch label {
		case LabelMalware:
			stats.MalwareMachine++
		case LabelBenign:
			stats.BenignMachine++
		default:
			stats.UnknownMachine++
		}
	}
	g.stats = stats
}

// recomputeMachineLabels rebuilds the per-machine counts and labels from
// the current domain labels. Machines are independent, so the scan is
// sharded across workers.
func (g *Graph) recomputeMachineLabels() {
	parallelFor(len(g.machineIDs), func(lo, hi int) {
		for m := lo; m < hi; m++ {
			var mal, nonBenign int32
			for _, d := range g.DomainsOf(int32(m)) {
				switch g.domainLabel[d] {
				case LabelMalware:
					mal++
					nonBenign++
				case LabelUnknown:
					nonBenign++
				}
			}
			g.cntMalware[m] = mal
			g.cntNonBenign[m] = nonBenign
			switch {
			case mal > 0:
				g.machineLabel[m] = LabelMalware
			case nonBenign == 0 && g.MachineDegree(int32(m)) > 0:
				g.machineLabel[m] = LabelBenign
			default:
				g.machineLabel[m] = LabelUnknown
			}
		}
	})
}

// MachineLabelHiding returns machine m's label as derived when domain d's
// label is withheld — the per-domain "hiding" step of training-set
// preparation (paper Figure 5). m must be a machine that queries d.
//
//   - malware: m queries a malware-labeled domain other than d;
//   - benign: every queried domain except d is benign-labeled;
//   - unknown: otherwise.
func (g *Graph) MachineLabelHiding(m, d int32) Label {
	return labelHiding(g.cntMalware[m], g.cntNonBenign[m], g.domainLabel[d])
}

// labelHiding derives a machine's label from its malware and non-benign
// domain counts with one queried domain, labeled hidden, withheld.
func labelHiding(mal, nonBenign int32, hidden Label) Label {
	switch hidden {
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

// DomainsWithLabel returns the indexes of domains carrying the label.
// A counting pass pre-sizes the result so million-domain graphs pay one
// allocation instead of log-many reallocations.
func (g *Graph) DomainsWithLabel(l Label) []int32 { return g.domainsWithLabel(l, nil) }

// domainsWithLabel is DomainsWithLabel over the domains with keep[d]
// set; nil keeps every domain.
func (g *Graph) domainsWithLabel(l Label, keep []bool) []int32 {
	match := func(d int) bool { return (keep == nil || keep[d]) && g.DomainLabel(int32(d)) == l }
	n := 0
	for d := range g.domains {
		if match(d) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, 0, n)
	for d := range g.domains {
		if match(d) {
			out = append(out, int32(d))
		}
	}
	return out
}
