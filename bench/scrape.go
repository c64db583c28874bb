package main

import (
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parsed /metrics exposition: series name with its label
// set exactly as rendered, e.g. `segugiod_shard_events_total{shard="0"}`.
type scrape map[string]float64

func parseScrape(body []byte) (scrape, error) {
	out := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// get returns one series, 0 when absent (a counter not yet created reads
// as never incremented).
func (s scrape) get(name string) float64 { return s[name] }

// family returns every series of one metric family (any label set), as
// label-set -> value.
func (s scrape) family(name string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s {
		if k == name {
			out[""] = v
		} else if strings.HasPrefix(k, name+"{") {
			out[k[len(name):]] = v
		}
	}
	return out
}

func (s scrape) sum(name string) float64 {
	t := 0.0
	for _, v := range s.family(name) {
		t += v
	}
	return t
}

// accounting is where every event the daemon has taken off the wire
// ended up. At quiescence sent == applied + stale + dropped + shed.
type accounting struct {
	applied, stale, dropped, shed float64
}

func (s scrape) accounting() accounting {
	return accounting{
		applied: s.get("segugiod_ingest_events_total"),
		stale:   s.get("segugiod_ingest_stale_total"),
		dropped: s.get("segugiod_ingest_dropped_total"),
		shed:    s.sum("segugiod_ingest_shed_total"),
	}
}

func (a accounting) total() int64 { return int64(a.applied + a.stale + a.dropped + a.shed) }

// diff returns now-minus-base for every series of now; gauges make no
// sense diffed, callers pick counters.
func (s scrape) diff(base scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}
