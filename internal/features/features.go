// Package features measures Segugio's 11 statistical domain features
// (paper Section II-A3) against a labeled behavior graph, an activity log,
// and a passive-DNS abuse index:
//
//	F1 machine behavior: fraction of infected machines querying the
//	  domain, fraction of unknown machines, and total querying machines;
//	F2 domain activity: active days and consecutive-day streak within a
//	  14-day look-back, for both the domain and its effective 2LD;
//	F3 IP abuse: fractions of the domain's resolved IPs and /24 prefixes
//	  historically pointed to by known malware domains, and counts of its
//	  IPs//24s shared with still-unknown domains.
//
// Every vector is measured *as if the domain were unknown*: the domain's
// own ground-truth label is hidden when deriving the labels of the
// machines that query it (paper Figure 5), and its own passive-DNS history
// is excluded from the abuse evidence. This is what makes training
// vectors comparable to deployment-time vectors.
package features

import (
	"errors"
	"sync"

	"segugio/internal/activity"
	"segugio/internal/graph"
	"segugio/internal/pdns"
)

// Feature indexes into a feature vector.
const (
	// F1: machine behavior.
	FInfectedFraction = iota
	FUnknownFraction
	FTotalMachines
	// F2: domain activity.
	FDomainActiveDays
	FDomainStreak
	FE2LDActiveDays
	FE2LDStreak
	// F3: IP abuse.
	FMalwareIPFraction
	FMalwarePrefixFraction
	FUnknownIPs
	FUnknownPrefixes

	// NumFeatures is the vector length.
	NumFeatures
)

var featureNames = [NumFeatures]string{
	"infected_machine_fraction",
	"unknown_machine_fraction",
	"total_machines",
	"domain_active_days",
	"domain_consecutive_days",
	"e2ld_active_days",
	"e2ld_consecutive_days",
	"malware_ip_fraction",
	"malware_prefix_fraction",
	"unknown_ip_count",
	"unknown_prefix_count",
}

// Names returns the feature names in vector order.
func Names() []string {
	out := make([]string, NumFeatures)
	copy(out, featureNames[:])
	return out
}

// Group identifies the paper's three feature groups for the ablation
// experiments (Section IV-B).
type Group uint8

// Group values.
const (
	GroupMachineBehavior Group = iota + 1
	GroupDomainActivity
	GroupIPAbuse
)

// Columns returns the vector columns belonging to the group.
func (g Group) Columns() []int {
	switch g {
	case GroupMachineBehavior:
		return []int{FInfectedFraction, FUnknownFraction, FTotalMachines}
	case GroupDomainActivity:
		return []int{FDomainActiveDays, FDomainStreak, FE2LDActiveDays, FE2LDStreak}
	case GroupIPAbuse:
		return []int{FMalwareIPFraction, FMalwarePrefixFraction, FUnknownIPs, FUnknownPrefixes}
	default:
		return nil
	}
}

// ColumnsExcluding returns all feature columns except the given group's —
// the "No machine" / "No activity" / "No IP" ablations of Figure 7.
func ColumnsExcluding(g Group) []int {
	drop := make(map[int]struct{})
	for _, c := range g.Columns() {
		drop[c] = struct{}{}
	}
	var out []int
	for c := 0; c < NumFeatures; c++ {
		if _, skip := drop[c]; !skip {
			out = append(out, c)
		}
	}
	return out
}

// Extractor measures feature vectors for domains of one labeled graph.
// An extractor built over a prune plan measures the pruned graph the plan
// describes without building it: node ids are the snapshot's, and only the
// domains and machines the plan keeps take part. It is safe for
// concurrent Vector calls.
type Extractor struct {
	g      *graph.Graph
	plan   *graph.PrunePlan
	log    *activity.Log
	abuse  *pdns.AbuseIndex
	window int
}

// ErrUnlabeledGraph is returned when constructing an Extractor over a
// graph whose ApplyLabels has not run: F1 is undefined without labels.
var ErrUnlabeledGraph = errors.New("features: graph is not labeled")

// NewExtractor builds an extractor. window is the F2 look-back length in
// days (the paper uses 14). The abuse index may be nil, in which case F3
// features are zero (useful for the "No IP" ablation and for deployments
// without a passive-DNS feed).
func NewExtractor(g *graph.Graph, log *activity.Log, abuse *pdns.AbuseIndex, window int) (*Extractor, error) {
	if !g.Labeled() {
		return nil, ErrUnlabeledGraph
	}
	if window <= 0 {
		window = 14
	}
	return &Extractor{g: g, log: log, abuse: abuse, window: window}, nil
}

// NewPlanExtractor builds an extractor over the pruned graph plan
// describes, reading plan's snapshot through its keep masks: every vector
// equals, bit for bit, the one NewExtractor(plan.Materialize(), ...)
// measures for the same domain.
func NewPlanExtractor(plan *graph.PrunePlan, log *activity.Log, abuse *pdns.AbuseIndex, window int) (*Extractor, error) {
	e, err := NewExtractor(plan.Graph(), log, abuse, window)
	if err != nil {
		return nil, err
	}
	e.plan = plan
	return e, nil
}

// Graph returns the graph the extractor measures: the plan's snapshot for
// a plan extractor, whose node ids every target and result use.
func (e *Extractor) Graph() *graph.Graph { return e.g }

// Kept reports whether domain node d is one the extractor measures: any
// node of a plain extractor's graph, a kept one of a plan extractor's.
func (e *Extractor) Kept(d int32) bool { return e.plan == nil || e.plan.KeepsDomain(d) }

// Vector measures the 11 features of domain node d with d's own label and
// history hidden.
func (e *Extractor) Vector(d int32) []float64 {
	v := make([]float64, NumFeatures)
	e.VectorInto(d, v)
	return v
}

// vecPool recycles scratch vectors for transient measurements (single
// lookups, audit records) so hot paths don't allocate per call.
var vecPool = sync.Pool{
	New: func() any {
		s := make([]float64, NumFeatures)
		return &s
	},
}

// BorrowVector returns a scratch feature vector from a shared pool.
// Callers must copy out anything they keep and hand the slice back with
// ReturnVector.
func BorrowVector() []float64 { return *vecPool.Get().(*[]float64) }

// ReturnVector recycles a slice obtained from BorrowVector.
func ReturnVector(v []float64) {
	if cap(v) >= NumFeatures {
		v = v[:NumFeatures]
		vecPool.Put(&v)
	}
}

// VectorInto measures domain node d's features into v, which must have
// length NumFeatures. It overwrites every element, so rows of a shared
// backing array and pooled scratch buffers need no prior clearing.
func (e *Extractor) VectorInto(d int32, v []float64) {
	for i := range v {
		v[i] = 0
	}
	g := e.g
	name := g.DomainName(d)

	// F1: machine behavior, with d's label hidden when re-deriving the
	// label of each machine that queries d.
	// A plan extractor counts only the machines its plan keeps, with their
	// labels as the pruned graph derives them.
	n, infected, unknown := 0, 0, 0
	for _, m := range g.MachinesOf(d) {
		var label graph.Label
		switch {
		case e.plan == nil:
			label = g.MachineLabelHiding(m, d)
		case e.plan.KeepsMachine(m):
			label = e.plan.MachineLabelHiding(m, d)
		default:
			continue
		}
		n++
		switch label {
		case graph.LabelMalware:
			infected++
		case graph.LabelUnknown:
			unknown++
		}
	}
	if n > 0 {
		v[FInfectedFraction] = float64(infected) / float64(n)
		v[FUnknownFraction] = float64(unknown) / float64(n)
		v[FTotalMachines] = float64(n)
	}

	// F2: domain activity over the look-back window ending on the
	// observation day.
	if e.log != nil {
		day := g.Day()
		from := day - e.window + 1
		e2ld := g.DomainE2LD(d)
		v[FDomainActiveDays] = float64(e.log.DomainActiveDays(name, from, day))
		v[FDomainStreak] = float64(e.log.DomainStreak(name, day))
		v[FE2LDActiveDays] = float64(e.log.E2LDActiveDays(e2ld, from, day))
		v[FE2LDStreak] = float64(e.log.E2LDStreak(e2ld, day))
	}

	// F3: IP abuse, excluding d's own passive-DNS contributions.
	if e.abuse != nil {
		ips := g.DomainIPs(d)
		if len(ips) > 0 {
			malIPs, malPrefixes, unkIPs, unkPrefixes := 0, 0, 0, 0
			for _, ip := range ips {
				if e.abuse.MalwareIPExcluding(ip, name) {
					malIPs++
				}
				if e.abuse.MalwarePrefixExcluding(ip, name) {
					malPrefixes++
				}
				if e.abuse.UnknownIPExcluding(ip, name) {
					unkIPs++
				}
				if e.abuse.UnknownPrefixExcluding(ip, name) {
					unkPrefixes++
				}
			}
			v[FMalwareIPFraction] = float64(malIPs) / float64(len(ips))
			v[FMalwarePrefixFraction] = float64(malPrefixes) / float64(len(ips))
			v[FUnknownIPs] = float64(unkIPs)
			v[FUnknownPrefixes] = float64(unkPrefixes)
		}
	}
}
