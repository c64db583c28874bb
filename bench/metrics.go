package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric: its name, unit, which way is
// better, and — end to end only — the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of segugiod would see, each with the
// bound the benchmark contract enforces. Every workload reports all of
// them. Two things a user also sees are not here. failed_ops_ratio is 0
// on a healthy run, so the contract carries it as the attempted/failed
// counts of every result. And recovery_s and the four serve_* latencies
// are CPU-bound timings of a second or less: on the 2-vCPU hosts this
// was built on their run-to-run spread (IQR 13-52 % of the median over
// ten seeds) exceeds any bound the contract allows, so they are reported
// with every run, unbounded, among the per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_events_per_s", Unit: "events/s", Better: "higher", Bound: 0.25},
	{Name: "ingest_cpu_s_per_mevent", Unit: "s/Mevent", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "detect_lag_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "detect_lag_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// discard drains and closes a response body, returning its size.
func discard(resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	return io.Copy(io.Discard, resp.Body)
}

// finish turns a run's raw observations into its metrics, counts
// attempted and failed operations, and applies the correctness gates.
func (r *runner) finish() {
	res, p := r.res, r.p
	last := r.lives[len(r.lives)-1]
	lastFinal := r.finals[len(r.finals)-1]

	// Exact accounting: at quiescence every event sent to a daemon life
	// is applied, stale, dropped or shed.
	var stale, dropped, shed, stallEvents float64
	var stallProbes int
	var sent int64
	for i, l := range r.lives {
		a := r.finals[i].accounting()
		stale += a.stale
		dropped += a.dropped
		shed += a.shed
		sent += l.sent.Load()
		l.mu.Lock()
		stallEvents += float64(l.stallEvents)
		stallProbes += l.stallProbes
		res.Warnings = append(res.Warnings, l.warnings...)
		l.mu.Unlock()
	}
	var unacked int64
	for i, l := range r.lives {
		a := r.finals[i].accounting()
		if got, want := a.total(), l.sent.Load(); got != want {
			unacked += max(want-got, 0)
			r.gate("accounting: sent %d events, daemon accounts for %d (applied %v stale %v dropped %v shed %v)",
				want, got, a.applied, a.stale, a.dropped, a.shed)
		}
	}
	unfencedStale := stale - stallEvents

	// Throughput and cost over the window: events accounted for from the
	// window's start to the last ack, over that wall time.
	window := r.lastAck.Sub(r.windowStart).Seconds()
	winAcc := lastFinal.diff(r.base).accounting()
	accWindow, appliedWindow := float64(winAcc.total()), winAcc.applied
	res.Metrics["ingest_events_per_s"] = accWindow / window
	res.Metrics["ingest_cpu_s_per_mevent"] = r.cpuWindow / (appliedWindow / 1e6)
	res.Metrics["peak_rss_mb"] = r.peakRSSMB
	res.Layers["recovery_s"] = r.recovery.Seconds()

	// Detection lag: audit ts minus the instant the probe's burst was
	// written (closed loop) or due (open loop), for probes sent in the
	// window. A probe that misses probeLimit is a failed operation and
	// enters the percentiles at the limit, so a miss never flatters them.
	var lags []float64
	missed := 0
	last.mu.Lock()
	for d, at := range last.probeSent {
		seen, ok := last.probeSeen[d]
		lag := float64(seen.Sub(at)) / float64(time.Millisecond)
		if !ok || lag > float64(probeLimit/time.Millisecond) {
			missed++
			lag = float64(probeLimit / time.Millisecond)
		}
		lags = append(lags, lag)
	}
	last.mu.Unlock()
	if len(lags) == 0 {
		r.gate("no planted probe was sent in the window")
	}
	res.Metrics["detect_lag_p50_ms"] = percentile(lags, 50)
	res.Metrics["detect_lag_p95_ms"] = percentile(lags, 95)
	// Beside the fixed percentiles, the highest one the sample supports
	// (at least ten samples beyond it), and which one that is.
	top := highestSupportedPercentile(len(lags))
	res.Layers["bench.detect_lag_top_percentile"] = top
	res.Layers["bench.detect_lag_top_ms"] = percentile(lags, top)

	// Serve latency, client side.
	if len(r.serve.domainMS) == 0 || len(r.serve.classifyMS) == 0 {
		r.gate("serve client completed %d domain GETs and %d classify-alls", len(r.serve.domainMS), len(r.serve.classifyMS))
	}
	res.Layers["serve_domain_p50_ms"] = percentile(r.serve.domainMS, 50)
	res.Layers["serve_domain_p95_ms"] = percentile(r.serve.domainMS, 95)
	res.Layers["serve_classify_all_p50_ms"] = percentile(r.serve.classifyMS, 50)
	res.Layers["serve_classify_all_p95_ms"] = percentile(r.serve.classifyMS, 95)
	top = highestSupportedPercentile(len(r.serve.domainMS))
	res.Layers["bench.serve_domain_top_percentile"] = top
	res.Layers["bench.serve_domain_top_ms"] = percentile(r.serve.domainMS, top)

	// Oracle: the batch pipeline over the same final-day events. The
	// cold classify-all must equal it: same domains, same verdicts, same
	// scores. The served one is allowed the incremental path's documented
	// approximation (prune thresholds frozen within StaleFor, untouched
	// domains keeping their scores); how far it drifts is reported by
	// name, never tolerated silently.
	mismatches, compared := 0, 0
	if r.served != nil && r.cold != nil {
		var finalProbes []string
		for _, c := range p.days[r.finalDay].chunks[:r.finalChunk+1] {
			if c.probe >= 0 {
				finalProbes = append(finalProbes, p.days[r.finalDay].probes[c.probe].Domain)
			}
		}
		t0 := time.Now()
		o, err := p.net.oracle(p.det, p.days, r.finalDay, r.finalChunk)
		res.Layers["bench.oracle_s"] = time.Since(t0).Seconds()
		if err != nil {
			r.gate("%v", err)
		} else {
			d := o.compare(r.cold, finalProbes)
			compared = len(o.scores)
			mismatches = len(d.onlyDaemon) + len(d.onlyOracle) + len(d.verdictFlips) + d.drifted
			if r.cold.Day != p.days[r.finalDay].day {
				r.gate("oracle: daemon classified day %d, stream ended on day %d", r.cold.Day, p.days[r.finalDay].day)
			}
			if r.cold.Stale {
				r.gate("oracle: final classify-all was served stale")
			}
			if len(d.missedProbes) > 0 {
				r.gate("harness: the batch oracle does not flag %d of %d planted probes (%s ...): the probe design is broken, not the daemon",
					len(d.missedProbes), len(finalProbes), d.missedProbes[0])
			}
			if len(d.onlyDaemon)+len(d.onlyOracle) > 0 {
				r.gate("oracle: domain sets differ: %d only in daemon, %d only in oracle (%s)",
					len(d.onlyDaemon), len(d.onlyOracle), firstOf(d.onlyDaemon, d.onlyOracle))
			}
			if len(d.verdictFlips) > 0 {
				r.gate("oracle: %d domains detected by one side only (%s ...)", len(d.verdictFlips), d.verdictFlips[0])
			}
			if d.drifted > 0 {
				r.gate("oracle: %d scores differ by more than %g (max %g)", d.drifted, oracleTolerance, d.maxScoreDelta)
			}
			s := o.compare(r.served, nil)
			res.Layers["core.oracle_max_score_delta"] = s.maxScoreDelta
			res.Layers["core.oracle_drifted_domains"] = float64(s.drifted)
			res.Layers["core.oracle_set_diff"] = float64(len(s.onlyDaemon) + len(s.onlyOracle))
			res.Layers["core.oracle_verdict_flips"] = float64(len(s.verdictFlips))
		}
	}

	// Operations: every event written, every probe, every HTTP request,
	// every domain the oracle compares.
	res.Attempted = sent + int64(len(lags)) + int64(r.serve.requests) + int64(compared)
	res.Failed = unacked + int64(dropped+shed+max(unfencedStale, 0)) + int64(missed) + int64(r.serve.errors) + int64(mismatches)
	L := res.Layers
	L["bench.failed_ops_ratio"] = float64(res.Failed) / float64(res.Attempted)
	L["bench.missed_probes"] = float64(missed)
	L["bench.probes"] = float64(len(lags))
	L["bench.serve_domain_n"] = float64(len(r.serve.domainMS))
	L["bench.serve_classify_all_n"] = float64(len(r.serve.classifyMS))
	L["bench.window_s"] = window
	L["ingest.stall_probes"] = float64(stallProbes)
	L["ingest.unfenced_stale_events"] = unfencedStale
	L["ingest.recovery_replayed_events"] = r.replayed
	L["bench.generator_late_p95_ms"] = 0
	if len(r.late) > 0 {
		L["bench.generator_late_p95_ms"] = max(percentile(r.late, 95), 0)
	}
	r.layers()
}

func firstOf(lists ...[]string) string {
	for _, l := range lists {
		if len(l) > 0 {
			return l[0] + " ..."
		}
	}
	return ""
}

// layers fills the per-layer metrics scraped from counters the daemon
// already exports: nothing here costs the daemon anything during the
// run. Window metrics are final-minus-base of the last life.
func (r *runner) layers() {
	d := r.finals[len(r.finals)-1].diff(r.base)
	L := r.res.Layers
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	stageSum := func(s string) float64 { return d.get(`segugiod_stage_seconds_sum{stage="` + s + `"}`) }
	stageN := func(s string) float64 { return d.get(`segugiod_stage_seconds_count{stage="` + s + `"}`) }

	L["logio.parse_s"] = stageSum("parse")
	L["logio.parse_errors"] = d.get("segugiod_ingest_parse_errors_total")
	L["ingest.apply_s"] = d.sum("segugiod_shard_apply_seconds_sum")
	L["ingest.apply_batches"] = d.sum("segugiod_shard_apply_seconds_count")
	L["ingest.events_per_batch"] = ratio(d.sum("segugiod_shard_events_total"), L["ingest.apply_batches"])
	var shardMax, shardSum, shards float64
	for _, v := range d.family("segugiod_shard_events_total") {
		shardMax = max(shardMax, v)
		shardSum += v
		shards++
	}
	L["ingest.shard_skew"] = ratio(shardMax, ratio(shardSum, shards))
	a := d.accounting()
	L["ingest.stale_events"] = a.stale
	L["ingest.dropped_events"] = a.dropped
	L["ingest.shed_events"] = a.shed
	L["ingest.rotations"] = d.get("segugiod_ingest_rotations_total")
	L["ingest.snapshot_s"] = d.get("segugiod_snapshot_seconds_sum")
	L["ingest.snapshots"] = d.get("segugiod_snapshot_seconds_count")
	L["ingest.checkpoints"] = d.get("segugiod_checkpoints_total")
	L["wal.append_s"] = stageSum("wal_append")
	L["wal.appends"] = d.get("segugiod_wal_appends_total")
	L["wal.syncs"] = d.get("segugiod_wal_syncs_total")
	L["wal.bytes_per_event"] = ratio(d.get("segugiod_wal_bytes_total"), a.applied)
	L["wal.append_failures"] = d.get("segugiod_wal_append_failures_total")
	L["features.extract_s"] = stageSum("feature_extract")
	L["core.classify_s"] = stageSum("classify")
	L["server.tracker_pass_s"] = stageSum("tracker_pass")
	L["server.passes"] = stageN("tracker_pass")
	L["server.pass_ms_mean"] = 1000 * ratio(stageSum("tracker_pass"), stageN("tracker_pass"))
	hits, misses := d.get("segugiod_classify_cache_hits_total"), d.get("segugiod_classify_cache_misses_total")
	L["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	ph, pm := d.get("segugiod_classify_prune_cache_hits_total"), d.get("segugiod_classify_prune_cache_misses_total")
	L["server.prune_cache_hit_ratio"] = ratio(ph, ph+pm)
	L["server.pass_deadline_exceeded"] = d.get("segugiod_pass_deadline_exceeded_total")
	L["server.http_errors"] = d.get("segugiod_http_request_errors_total")
	L["obs.audit_records"] = d.get("segugiod_audit_records_total")

	// Poller-side observations, over every life.
	var gap time.Duration
	var queue, wmLag float64
	var over time.Duration
	for _, l := range r.lives[len(r.lives)-1:] {
		l.mu.Lock()
		gap = max(gap, l.gapMax)
		queue = max(queue, l.queueMax)
		wmLag = max(wmLag, l.wmLagMax)
		over += l.overloaded
		l.mu.Unlock()
	}
	L["ingest.progress_gap_max_ms"] = float64(gap) / float64(time.Millisecond)
	L["ingest.queue_depth_max"] = queue
	L["obs.watermark_lag_max_s"] = wmLag
	L["health.overloaded_s"] = over.Seconds()
	L["ingest.dirty_domains_mean"] = ratio(misses, stageN("tracker_pass"))
	L["bench.serve_bytes_per_request"] = ratio(float64(r.serve.bytes), float64(r.serve.requests))
}

// describe renders a result for people: every metric by name with its
// unit, then gates and warnings.
func (res *runResult) describe(w io.Writer) {
	fmt.Fprintf(w, "== %s (seed %d, %.0fs) ==\n", res.Workload, res.Seed, res.Seconds)
	for _, def := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", def.Name, res.Metrics[def.Name], def.Unit)
	}
	names := make([]string, 0, len(res.Layers))
	for n := range res.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g\n", n, res.Layers[n])
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, g := range res.Gates {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", g)
	}
	for _, warn := range res.Warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", warn)
	}
	fmt.Fprintf(w, "  stream sha256 %s\n", strings.ToLower(res.StreamSHA))
}

// perLayer are the metrics without a bound: first the user-visible
// timings too noisy to carry one, then the metrics of single layers,
// named module.metric. Of those, the first block is scraped once after
// every run from counters the daemon
// already exports, so it costs the daemon nothing while the run is on;
// the second comes from the traced run. None has a bound: they exist to
// say where an end-to-end change came from.
var perLayer = []metricDef{
	{Name: "recovery_s", Unit: "s", Better: "lower"},
	{Name: "serve_domain_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_domain_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_classify_all_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_classify_all_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "logio.parse_s", Unit: "s", Better: "lower"},
	{Name: "logio.parse_errors", Unit: "count", Better: "lower"},
	{Name: "ingest.apply_s", Unit: "s", Better: "lower"},
	{Name: "ingest.apply_batches", Unit: "count", Better: "lower"},
	{Name: "ingest.events_per_batch", Unit: "count", Better: "higher"},
	{Name: "ingest.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "ingest.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "ingest.stale_events", Unit: "count", Better: "lower"},
	{Name: "ingest.unfenced_stale_events", Unit: "count", Better: "lower"},
	{Name: "ingest.dropped_events", Unit: "count", Better: "lower"},
	{Name: "ingest.shed_events", Unit: "count", Better: "lower"},
	{Name: "ingest.rotations", Unit: "count", Better: "higher"},
	{Name: "ingest.progress_gap_max_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.stall_probes", Unit: "count", Better: "lower"},
	{Name: "ingest.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "ingest.snapshots", Unit: "count", Better: "lower"},
	{Name: "ingest.dirty_domains_mean", Unit: "count", Better: "lower"},
	{Name: "ingest.checkpoints", Unit: "count", Better: "lower"},
	{Name: "ingest.recovery_replayed_events", Unit: "count", Better: "lower"},
	{Name: "wal.append_s", Unit: "s", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "wal.append_failures", Unit: "count", Better: "lower"},
	{Name: "features.extract_s", Unit: "s", Better: "lower"},
	{Name: "core.classify_s", Unit: "s", Better: "lower"},
	{Name: "core.oracle_max_score_delta", Unit: "score", Better: "lower"},
	{Name: "core.oracle_drifted_domains", Unit: "count", Better: "lower"},
	{Name: "core.oracle_set_diff", Unit: "count", Better: "lower"},
	{Name: "core.oracle_verdict_flips", Unit: "count", Better: "lower"},
	{Name: "server.tracker_pass_s", Unit: "s", Better: "lower"},
	{Name: "server.passes", Unit: "count", Better: "higher"},
	{Name: "server.pass_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.prune_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.pass_deadline_exceeded", Unit: "count", Better: "lower"},
	{Name: "server.http_errors", Unit: "count", Better: "lower"},
	{Name: "obs.audit_records", Unit: "count", Better: "higher"},
	{Name: "obs.watermark_lag_max_s", Unit: "s", Better: "lower"},
	{Name: "health.overloaded_s", Unit: "s", Better: "lower"},
	{Name: "bench.failed_ops_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.missed_probes", Unit: "count", Better: "lower"},
	{Name: "bench.probes", Unit: "count", Better: "higher"},
	{Name: "bench.detect_lag_top_percentile", Unit: "%", Better: "higher"},
	{Name: "bench.detect_lag_top_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.serve_domain_top_percentile", Unit: "%", Better: "higher"},
	{Name: "bench.serve_domain_top_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.serve_domain_n", Unit: "count", Better: "higher"},
	{Name: "bench.serve_classify_all_n", Unit: "count", Better: "higher"},
	{Name: "bench.serve_bytes_per_request", Unit: "B", Better: "lower"},
	{Name: "bench.generator_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.window_s", Unit: "s", Better: "lower"},
	{Name: "bench.synth_s", Unit: "s", Better: "lower"},
	{Name: "bench.oracle_s", Unit: "s", Better: "lower"},

	{Name: "logio.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "graph.apply_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "graph.dup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "graph.snapshot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.prune_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wal.sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "ingest.consume_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "ingest.overhead_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "ingest.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "ingest.snapshot_since_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.open_durable_ms", Unit: "ms", Better: "lower"},
	{Name: "features.vector_us_per_domain", Unit: "us", Better: "lower"},
	{Name: "ml.score_us_per_row", Unit: "us", Better: "lower"},
	{Name: "core.classify_full_ms", Unit: "ms", Better: "lower"},
	{Name: "core.classify_delta_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.pass_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.pass_allocs", Unit: "count", Better: "lower"},
	{Name: "server.classify_all_warm_us", Unit: "us", Better: "lower"},
	{Name: "server.domain_get_us", Unit: "us", Better: "lower"},
	{Name: "server.response_bytes", Unit: "B", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// layerUnit is the unit of a per-layer metric ("" for one not listed).
func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
