package graph

// Prober filtering (paper Section VI): some clients run security tools
// that continuously probe long lists of known malware domains — to check
// blacklisting status, resolved IPs, and so on. They look like
// spectacularly infected machines and inject noise into every
// machine-behavior feature. The paper reports using heuristics to verify
// pruned graphs contained no such anomalous clients; this file implements
// that verification as a filter.
//
// The heuristic exploits Figure 3: real infections query a handful of
// control domains per day (essentially never more than twenty), and
// malware traffic is a sliver of an infected user's browsing. A client
// whose known-malware query count is implausibly high — in absolute terms
// and as a fraction of its profile — is a scanner, not a victim.

// ProberConfig tunes the anomalous-client heuristic.
type ProberConfig struct {
	// MinMalwareDomains is the absolute threshold: a real infection stays
	// well under this many distinct known-malware domains per day
	// (default 30, above Figure 3's observed maximum of ~20).
	MinMalwareDomains int
	// MinMalwareFraction is the profile threshold: known-malware domains
	// must make up at least this fraction of the client's queries
	// (default 0.25; infected users still mostly browse normally).
	MinMalwareFraction float64
}

// DefaultProberConfig returns thresholds conservatively above any
// behavior Figure 3 attributes to real infections.
func DefaultProberConfig() ProberConfig {
	return ProberConfig{MinMalwareDomains: 30, MinMalwareFraction: 0.25}
}

func normalizeProberConfig(cfg ProberConfig) ProberConfig {
	if cfg.MinMalwareDomains <= 0 {
		cfg.MinMalwareDomains = 30
	}
	if cfg.MinMalwareFraction <= 0 {
		cfg.MinMalwareFraction = 0.25
	}
	return cfg
}

func machineIsProber(g *Graph, m int32, cfg ProberConfig) bool {
	mal := g.MachineMalwareCount(m)
	deg := g.MachineDegree(m)
	return mal >= cfg.MinMalwareDomains && deg > 0 &&
		float64(mal)/float64(deg) >= cfg.MinMalwareFraction
}

// FindProbers returns the machine nodes matching the heuristic, in node
// order. The graph must be labeled (the heuristic reads known-malware
// query counts). The scan is sharded across GOMAXPROCS workers.
func FindProbers(g *Graph, cfg ProberConfig) ([]int32, error) {
	if !g.Labeled() {
		return nil, ErrNotLabeled
	}
	fullScans.Add(1)
	cfg = normalizeProberConfig(cfg)
	shards := shardedInt32s(g.NumMachines(), func(lo, hi int, out *[]int32) {
		for m := lo; m < hi; m++ {
			if machineIsProber(g, int32(m), cfg) {
				*out = append(*out, int32(m))
			}
		}
	})
	var out []int32
	for _, s := range shards {
		out = append(out, s...)
	}
	return out, nil
}

// FilterProbers removes the machines matched by FindProbers and returns
// the filtered graph with the removed machine identifiers. Domain nodes
// are kept (their degrees shrink; subsequent pruning handles fallout).
func FilterProbers(g *Graph, cfg ProberConfig) (*Graph, []string, error) {
	probers, err := FindProbers(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(probers) == 0 {
		return g, nil, nil
	}
	keepM := make([]bool, g.NumMachines())
	for i := range keepM {
		keepM[i] = true
	}
	removed := make([]string, 0, len(probers))
	for _, m := range probers {
		keepM[m] = false
		removed = append(removed, g.machineIDs[m])
	}
	keepD := make([]bool, g.NumDomains())
	for i := range keepD {
		keepD[i] = true
	}
	return materialize(g, keepM, keepD), removed, nil
}
