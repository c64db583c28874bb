package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/graph"
	"segugio/internal/logio"
)

// oracleResult is the batch pipeline's verdict over the same final-day
// events the daemon was sent.
type oracleResult struct {
	scores    map[string]float64
	threshold float64
}

// oracle is the reference the daemon's classify-all is held to: the
// batch graph.Builder → Build → ApplyLabels → core.Detector.Classify
// pipeline, in-process, over the events of days[final] up to and
// including chunk lastChunk. Days before final contribute what they
// contribute in the daemon: activity marks for the F2 look-back.
func (n *network) oracle(det *core.Detector, days []*dayStream, final, lastChunk int) (*oracleResult, error) {
	act := activity.NewLog()
	n.preloadActivity(act)
	b := graph.NewBuilder("isp", days[final].day, n.suffixes)
	for di := 0; di <= final; di++ {
		ds := days[di]
		last := len(ds.chunks) - 1
		if di == final {
			last = lastChunk
		}
		marked := map[string]struct{}{}
		for _, seg := range ds.segments(last) {
			err := logio.ReadEventsBinary(bytes.NewReader(seg), func(e logio.Event) error {
				if e.Kind == logio.EventQuery {
					if _, dup := marked[e.Domain]; !dup {
						marked[e.Domain] = struct{}{}
						act.MarkDomain(e.Day, e.Domain)
						act.MarkE2LD(e.Day, n.suffixes.E2LD(e.Domain))
					}
				}
				if di != final {
					return nil
				}
				switch e.Kind {
				case logio.EventQuery:
					b.AddQuery(e.Machine, e.Domain)
				case logio.EventResolution:
					for _, ip := range e.IPs {
						b.AddResolution(e.Domain, ip)
					}
				}
				return nil
			}, func(err error) {})
			if err != nil {
				return nil, fmt.Errorf("oracle: decode day %d: %w", ds.day, err)
			}
		}
	}
	g := b.Build()
	g.ApplyLabels(graph.LabelSources{Blacklist: n.blacklist, Whitelist: n.whitelist, AsOf: g.Day()})
	dets, _, err := det.Classify(core.ClassifyInput{Graph: g, Activity: act, Abuse: n.abuse})
	if err != nil {
		return nil, fmt.Errorf("oracle: classify: %w", err)
	}
	res := &oracleResult{scores: make(map[string]float64, len(dets)), threshold: det.Threshold()}
	for _, d := range dets {
		res.scores[d.Domain] = d.Score
	}
	return res, nil
}

// classifyRow is one row of the daemon's POST /v1/classify reply.
type classifyRow struct {
	Domain   string  `json:"domain"`
	Score    float64 `json:"score"`
	Detected bool    `json:"detected"`
}

type classifyReply struct {
	Day        int           `json:"day"`
	Threshold  float64       `json:"threshold"`
	Classified int           `json:"classified"`
	Stale      bool          `json:"stale"`
	Detections []classifyRow `json:"detections"`
}

// oracleDiff is how the daemon's final classify-all differs from the
// oracle's. The gate is on sets; score drift is reported by name.
type oracleDiff struct {
	onlyDaemon, onlyOracle []string // domain-set differences
	verdictFlips           []string // same domain, different detected verdict
	maxScoreDelta          float64
	drifted                int // domains whose scores differ by more than oracleTolerance
	missedProbes           []string
}

// oracleTolerance is the score agreement the issue asks for.
const oracleTolerance = 1e-9

func (o *oracleResult) compare(reply *classifyReply, probes []string) oracleDiff {
	var d oracleDiff
	seen := make(map[string]struct{}, len(reply.Detections))
	for _, row := range reply.Detections {
		seen[row.Domain] = struct{}{}
		want, ok := o.scores[row.Domain]
		if !ok {
			d.onlyDaemon = append(d.onlyDaemon, row.Domain)
			continue
		}
		delta := math.Abs(want - row.Score)
		d.maxScoreDelta = max(d.maxScoreDelta, delta)
		if delta > oracleTolerance {
			d.drifted++
		}
		if (want >= o.threshold) != row.Detected {
			d.verdictFlips = append(d.verdictFlips, row.Domain)
		}
	}
	for name := range o.scores {
		if _, ok := seen[name]; !ok {
			d.onlyOracle = append(d.onlyOracle, name)
		}
	}
	for _, p := range probes {
		if s, ok := o.scores[p]; !ok || s < o.threshold {
			d.missedProbes = append(d.missedProbes, p)
		}
	}
	sort.Strings(d.onlyDaemon)
	sort.Strings(d.onlyOracle)
	sort.Strings(d.verdictFlips)
	return d
}
