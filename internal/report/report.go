// Package report renders Segugio's detections for the vetting step the
// paper recommends before blocking (Section IV-D: "care should be taken,
// e.g. via an additional vetting process, before the discovered domains
// are deployed to block malware-control communications"). Each detection
// carries the evidence an analyst needs: the feature values behind the
// score, the resolved addresses, and the querying machines.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"segugio/internal/core"
	"segugio/internal/features"
	"segugio/internal/graph"
)

// Evidence is the analyst-facing view of one detected domain.
type Evidence struct {
	Domain string  `json:"domain"`
	Score  float64 `json:"score"`
	E2LD   string  `json:"e2ld"`

	// Machine behavior.
	QueryingMachines int     `json:"queryingMachines"`
	InfectedFraction float64 `json:"infectedFraction"`
	UnknownFraction  float64 `json:"unknownFraction"`

	// Domain activity (look-back window of the extractor).
	ActiveDays      int `json:"activeDays"`
	ConsecutiveDays int `json:"consecutiveDays"`

	// IP abuse.
	ResolvedIPs           []string `json:"resolvedIps"`
	MalwareIPFraction     float64  `json:"malwareIpFraction"`
	MalwarePrefixFraction float64  `json:"malwarePrefixFraction"`

	// Machines lists (a capped number of) the machine identifiers that
	// queried the domain — the enumeration-and-remediation output of
	// Section VI.
	Machines []string `json:"machines"`
}

// Report is one deployment day's detection report.
type Report struct {
	Network    string     `json:"network"`
	Day        int        `json:"day"`
	Threshold  float64    `json:"threshold"`
	Classified int        `json:"classified"`
	Detections []Evidence `json:"detections"`
}

// MaxMachinesPerDomain caps the per-domain machine enumeration to keep
// reports readable; the graph retains the full set.
const MaxMachinesPerDomain = 25

// Build assembles a report from the classification outcome. g must be the
// pruned graph classification ran on (ClassifyReport.PrunedGraph()) and ex
// an extractor over it.
func Build(g *graph.Graph, ex *features.Extractor, detector *core.Detector,
	detections []core.Detection, classified int) *Report {
	r := &Report{
		Network:    g.Name(),
		Day:        g.Day(),
		Threshold:  detector.Threshold(),
		Classified: classified,
	}
	for _, det := range detector.Detected(detections) {
		d, ok := g.DomainIndex(det.Domain)
		if !ok {
			continue
		}
		v := ex.Vector(d)
		e := Evidence{
			Domain:                det.Domain,
			Score:                 det.Score,
			E2LD:                  g.DomainE2LD(d),
			QueryingMachines:      int(v[features.FTotalMachines]),
			InfectedFraction:      v[features.FInfectedFraction],
			UnknownFraction:       v[features.FUnknownFraction],
			ActiveDays:            int(v[features.FDomainActiveDays]),
			ConsecutiveDays:       int(v[features.FDomainStreak]),
			MalwareIPFraction:     v[features.FMalwareIPFraction],
			MalwarePrefixFraction: v[features.FMalwarePrefixFraction],
		}
		for _, ip := range g.DomainIPs(d) {
			e.ResolvedIPs = append(e.ResolvedIPs, ip.String())
		}
		for _, m := range g.MachinesOf(d) {
			if len(e.Machines) == MaxMachinesPerDomain {
				break
			}
			e.Machines = append(e.Machines, g.MachineID(m))
		}
		sort.Strings(e.Machines)
		r.Detections = append(r.Detections, e)
	}
	sort.Slice(r.Detections, func(i, j int) bool {
		if r.Detections[i].Score != r.Detections[j].Score {
			return r.Detections[i].Score > r.Detections[j].Score
		}
		return r.Detections[i].Domain < r.Detections[j].Domain
	})
	return r
}

// AllMachines returns the deduplicated, sorted union of machines across
// all detections — the remediation work list.
func (r *Report) AllMachines() []string {
	set := map[string]struct{}{}
	for _, e := range r.Detections {
		for _, m := range e.Machines {
			set[m] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText emits a human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Segugio detection report — %s, day %d\n", r.Network, r.Day)
	fmt.Fprintf(&b, "classified %d unknown domains; %d at or above threshold %.4f\n\n",
		r.Classified, len(r.Detections), r.Threshold)
	for _, e := range r.Detections {
		fmt.Fprintf(&b, "%.4f  %s  (e2LD %s)\n", e.Score, e.Domain, e.E2LD)
		fmt.Fprintf(&b, "        machines: %d querying, %.0f%% known-infected, %.0f%% unknown\n",
			e.QueryingMachines, e.InfectedFraction*100, e.UnknownFraction*100)
		fmt.Fprintf(&b, "        activity: %d/%d look-back days, %d-day streak\n",
			e.ActiveDays, 14, e.ConsecutiveDays)
		fmt.Fprintf(&b, "        IPs: %s (%.0f%% malware-associated, %.0f%% in abused /24s)\n",
			strings.Join(e.ResolvedIPs, ", "), e.MalwareIPFraction*100, e.MalwarePrefixFraction*100)
		if len(e.Machines) > 0 {
			fmt.Fprintf(&b, "        querying machines: %s\n", strings.Join(e.Machines, ", "))
		}
	}
	machines := r.AllMachines()
	fmt.Fprintf(&b, "\nremediation list: %d machines\n", len(machines))
	_, err := io.WriteString(w, b.String())
	return err
}
