package main

import "time"

// workload is one traffic mix. Every workload drives every path — ingest,
// planted probes, the HTTP client, a SIGKILL and a recovery — because the
// benchmark contract reports every end-to-end metric on every workload;
// what differs is which path is loaded and which only ticks over.
type workload struct {
	name string
	why  string
	// flags are the daemon flags this workload sets beyond the fixed
	// ones; everything else stays at the daemon's default.
	flags []string
	// rate is the open-loop event rate; 0 means closed loop, as fast as
	// TCP backpressure allows.
	rate float64
	// probeGap is the time between planted probes at this workload's
	// nominal event rate.
	probeGap time.Duration
	// serveUnderLoad runs the closed-loop HTTP client during the window,
	// beside the writes. Without it the serve path is idle while the
	// window is open and is measured on the quiescent graph afterwards.
	serveUnderLoad bool
}

// nominalSat is the closed-loop rate probes are spaced for: the order
// of the seed commit's saturation throughput. It only places probes in
// the stream; nothing is paced by it.
const nominalSat = 400000

var workloads = []workload{
	{
		name:     "replay-sat",
		why:      "closed loop on 1 connection, as fast as TCP backpressure allows: decode, ring, apply and WAL do the work, a snapshot and delta pass cut in each second, one day rotation included; serve path idle",
		flags:    []string{"-shed-policy", "block"},
		probeGap: 100 * time.Millisecond,
	},
	{
		name:     "live-paced",
		why:      "open loop at 150k events/s, about a third of saturation: ingest is lightly loaded, so detection lag is ticker phase + snapshot + prune/extract + score + cache merge + audit; serve path idle",
		flags:    []string{"-shed-policy", "block"},
		rate:     150000,
		probeGap: 50 * time.Millisecond,
	},
	{
		name:           "serve-mixed",
		why:            "reads beside writes: 50k events/s open loop while one closed-loop HTTP client cycles 20 domain GETs and a classify-all; score cache, snapshots and JSON serving dominate",
		flags:          []string{"-shed-policy", "block"},
		rate:           50000,
		probeGap:       50 * time.Millisecond,
		serveUnderLoad: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
