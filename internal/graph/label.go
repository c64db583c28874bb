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
// (e.g. with a different Hidden set); every call allocates fresh label
// and count arrays, so labels a reader holds never change under it.
//
// A Builder's snapshot starts from its base — the newest of the
// Builder's snapshots already labeled when it froze — when both are
// labeled with the same source objects and cutoff and neither hides
// domains; otherwise every node is labeled afresh.
func (g *Graph) ApplyLabels(src LabelSources) LabelStats {
	base := g.labelBase.Swap(nil)
	if base != nil && !canRelabelIncrementally(base, src) {
		base = nil
	}
	g.relabel(base, src)
	g.labelSrc = src
	g.labeled.Store(true)
	return g.stats
}

// canRelabelIncrementally reports whether base's labels are reusable as a
// starting point: same source objects and cutoff, no hidden sets (the
// hidden set is experiment machinery, not a daemon path).
func canRelabelIncrementally(base *Graph, src LabelSources) bool {
	return src.Hidden == nil && base.labelSrc.Hidden == nil &&
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

// relabel labels g's domains from src and derives its machines' labels.
// With a base (nil: none) it copies base's domain labels and looks up
// only the domains interned since, and labelMachines recounts only the
// machines that changed since base.
func (g *Graph) relabel(base *Graph, src LabelSources) {
	var stats LabelStats
	dl := make([]Label, len(g.domains))
	from := 0
	if base != nil {
		from = copy(dl, base.domainLabel)
		stats = base.stats
		stats.MalwareMachine, stats.BenignMachine, stats.UnknownMachine = 0, 0, 0
	}
	for d := from; d < len(dl); d++ {
		dl[d] = g.labelFor(d, src, &stats)
	}
	g.domainLabel = dl
	g.labelMachines(base)
	var machines [LabelMalware + 1]int
	for _, l := range g.machineLabel {
		machines[l]++
	}
	stats.MalwareMachine, stats.BenignMachine, stats.UnknownMachine =
		machines[LabelMalware], machines[LabelBenign], machines[LabelUnknown]
	g.stats = stats
}

// labelMachines derives every machine's malware and non-benign domain
// counts and its label from g's domain labels, on parallelFor workers.
// A machine base (nil: none) has at the same degree keeps base's counts
// and label: within a day a machine's row only grows, so its row is
// unchanged, and every domain in it predates base and kept its label.
func (g *Graph) labelMachines(base *Graph) {
	nm, baseNM := len(g.machineIDs), 0
	ml, cm, cnb := make([]Label, nm), make([]int32, nm), make([]int32, nm)
	if base != nil {
		baseNM = copy(ml, base.machineLabel)
		copy(cm, base.cntMalware)
		copy(cnb, base.cntNonBenign)
	}
	parallelFor(nm, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			adj := g.DomainsOf(int32(m))
			if m < baseNM && len(adj) == base.MachineDegree(int32(m)) {
				continue
			}
			var mal, nonBenign int32
			for _, d := range adj {
				switch g.domainLabel[d] {
				case LabelMalware:
					mal++
					nonBenign++
				case LabelUnknown:
					nonBenign++
				}
			}
			cm[m], cnb[m] = mal, nonBenign
			switch {
			case mal > 0:
				ml[m] = LabelMalware
			case nonBenign == 0 && len(adj) > 0:
				ml[m] = LabelBenign
			default:
				ml[m] = LabelUnknown
			}
		}
	})
	g.machineLabel, g.cntMalware, g.cntNonBenign = ml, cm, cnb
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
