// Command segugiod is the deployment daemon: it ingests a live stream of
// DNS events (queries and resolutions), maintains the current day's
// behavior graph incrementally, and serves online classification plus
// health and metrics over HTTP.
//
//	segugiod -listen 127.0.0.1:8080 -events tcp://127.0.0.1:9000 \
//	    -model detector.gob -data ./day-data -start-day 170
//
// Event sources (-events):
//
//	"-"              read the event stream from stdin
//	tcp://host:port  listen and accept any number of streaming connections
//	path             tail a file, following appended events
//	tracedns:path    tail inspektor-gadget trace_dns JSONL ("tracedns:-" for stdin)
//
// Stream sources (stdin, tcp://, and the tailed file's WAL replay) accept
// both the tab-separated text format and the length-prefixed segb1 binary
// framing; the format is auto-detected per connection from the first
// bytes. Binary framing is produced by `segugio generate -events-format
// binary` or any EventEncoder writer and carries interned symbols for a
// ~5x parse speedup at the ingest frontend.
//
// The HTTP surface is internal/server: POST /v1/classify,
// GET /v1/domains/{name}, POST /v1/reload, GET /v1/audit, GET /healthz,
// GET /metrics, GET /debug/obs/traces. SIGHUP reloads the detector in
// place; SIGINT/SIGTERM shut down gracefully (drain ingest queues, seal
// the audit trail, snapshot the flight recorder, stop the HTTP server).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/ingest"
	"segugio/internal/intel"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/obs"
	"segugio/internal/pdns"
	"segugio/internal/server"
	"segugio/internal/slo"
	"segugio/internal/tracker"
	"segugio/internal/tsdb"
	"segugio/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "segugiod:", err)
		os.Exit(1)
	}
}

type options struct {
	listen   string
	events   string
	model    string
	dataDir  string
	pslPath  string
	network  string
	startDay int
	workers  int
	queue    int
	keepDays int

	// Durability and hardening knobs. A zero value disables the feature
	// (no -state means a purely in-memory daemon, as before).
	stateDir         string
	ckptInterval     time.Duration
	walSyncEvery     int
	maxEventConns    int
	eventIdleTimeout time.Duration

	// classifyEvery enables the periodic tracker pass: a cached
	// classify-all whose detections accumulate in the cross-day tracker.
	classifyEvery time.Duration
	pprof         bool

	// Overload-resilience knobs: the classify-pass deadline, the ingest
	// shed policy, the per-endpoint admission cap, and the heap
	// watermark that trips the overloaded state. Zero disables each.
	passDeadline   time.Duration
	shedPolicy     string
	maxInflight    int
	memWatermarkMB int

	// Test seams (not flags): passHook stalls classify passes, applyHook
	// stalls graph apply batches, and walHooks injects WAL faults — the
	// chaos harness wires them.
	passHook  func(context.Context)
	applyHook func()
	walHooks  *wal.Hooks

	// Observability knobs: structured-log shape, flight-recorder sizing,
	// and the slow-trace alert threshold.
	logFormat string
	logLevel  string
	slowTrace time.Duration
	traceRing int
	auditRing int

	// Freshness-telemetry knobs: the embedded stats store's scrape
	// cadence and retention, and an optional SLO objectives file whose
	// burn-rate evaluator feeds the health state machine.
	statsInterval  time.Duration
	statsRetention time.Duration
	sloConfig      string
}

func parseFlags(args []string) (options, error) {
	var opts options
	fs := flag.NewFlagSet("segugiod", flag.ContinueOnError)
	fs.StringVar(&opts.listen, "listen", "127.0.0.1:8080", "HTTP API listen address")
	fs.StringVar(&opts.events, "events", "-", `event source: "-" (stdin), tcp://host:port (listener), a file path (tail), or tracedns:path (inspektor-gadget trace_dns JSONL; "tracedns:-" for stdin). Stream sources auto-detect text vs segb1 binary framing`)
	fs.StringVar(&opts.model, "model", "", "trained detector file (optional; classify answers 503 without one)")
	fs.StringVar(&opts.dataDir, "data", "", "directory with blacklist.tsv, whitelist.txt, and optional pdns.tsv/activity.tsv")
	fs.StringVar(&opts.pslPath, "psl", "", "public-suffix list file (optional)")
	fs.StringVar(&opts.network, "network", "isp", "network name stamped on live graphs")
	fs.IntVar(&opts.startDay, "start-day", 0, "initial epoch day; earlier events are dropped as stale")
	fs.IntVar(&opts.workers, "workers", 4, "ingest shards: one worker, one staging buffer with its own apply lock, and one WAL stripe each (a restart with a different value replays the stripes into the new count)")
	fs.IntVar(&opts.queue, "queue", 4096, "per-shard event queue depth")
	fs.IntVar(&opts.keepDays, "keep-days", 30, "days of activity history kept across rotations")
	fs.StringVar(&opts.stateDir, "state", "", "state directory for the write-ahead log and checkpoints (empty: in-memory only)")
	fs.DurationVar(&opts.ckptInterval, "checkpoint-interval", 30*time.Second, "how often to checkpoint the live graph (with -state)")
	fs.IntVar(&opts.walSyncEvery, "wal-sync-every", 256, "fsync the WAL after this many records (with -state; 1 = every record)")
	fs.IntVar(&opts.maxEventConns, "max-event-conns", 64, "concurrent tcp:// event connections accepted (0 = unlimited)")
	fs.DurationVar(&opts.eventIdleTimeout, "event-idle-timeout", 5*time.Minute, "drop a tcp:// event connection idle this long (0 = never)")
	fs.DurationVar(&opts.classifyEvery, "classify-every", 0, "run a periodic classify-all and feed detections to the /v1/tracker history (0 = disabled; needs -model)")
	fs.DurationVar(&opts.passDeadline, "pass-deadline", 0, "cancel a classify/tracker pass running longer than this and serve last-good cached scores stale-marked (0 = unbounded)")
	fs.StringVar(&opts.shedPolicy, "shed-policy", "block", `full ingest shard policy: "block" (backpressure), "drop-oldest" (block, and shed only while overloaded)`)
	fs.IntVar(&opts.maxInflight, "max-inflight", 0, "per-endpoint concurrent request cap; excess requests get 429/503 with Retry-After (0 = unlimited)")
	fs.IntVar(&opts.memWatermarkMB, "mem-watermark-mb", 0, "heap-in-use megabytes above which the daemon reports overloaded (0 = disabled)")
	fs.BoolVar(&opts.pprof, "pprof", true, "serve net/http/pprof under /debug/pprof/ on the API listener")
	fs.StringVar(&opts.logFormat, "log-format", obs.FormatText, `log output format: "text" or "json"`)
	fs.StringVar(&opts.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.DurationVar(&opts.slowTrace, "slow-trace", time.Second, "log pipeline traces slower than this (0 = never)")
	fs.IntVar(&opts.traceRing, "trace-ring", 32, "traces kept in each flight-recorder ring (most recent and slowest)")
	fs.IntVar(&opts.auditRing, "audit-ring", 1024, "detection audit records kept in memory for /v1/audit")
	fs.DurationVar(&opts.statsInterval, "stats-interval", 5*time.Second, "self-scrape cadence of the embedded time-series store behind /v1/stats/query")
	fs.DurationVar(&opts.statsRetention, "stats-retention", time.Hour, "how far back the embedded time-series store holds samples")
	fs.StringVar(&opts.sloConfig, "slo-config", "", "JSON SLO objectives file; burn-rate breaches feed the health state machine (empty: disabled)")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if fs.NArg() != 0 {
		return opts, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if !ingest.ValidShedPolicy(opts.shedPolicy) {
		return opts, fmt.Errorf("-shed-policy: unknown policy %q (have block, drop-oldest)", opts.shedPolicy)
	}
	return opts, nil
}

func run(ctx context.Context, args []string, stdin io.Reader, logw io.Writer) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	level, err := obs.ParseLevel(opts.logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(logw, opts.logFormat, level)
	if err != nil {
		return err
	}
	d, err := newDaemon(opts, logger)
	if err != nil {
		return err
	}
	return d.run(ctx, stdin)
}

// daemon wires the ingester, the HTTP server, and the event source. It is
// constructed with its listeners already bound so tests can read the
// assigned ports before starting run.
type daemon struct {
	opts options

	// logger is the root structured logger; log is its "daemon"
	// component child used for the daemon's own lifecycle records.
	logger *slog.Logger
	log    *slog.Logger

	reg     *metrics.Registry
	tracer  *obs.Tracer
	audit   *obs.AuditLog
	health  *health.Tracker
	wm      *obs.Watermarks
	stats   *tsdb.Store
	sloEval *slo.Evaluator
	ing     *ingest.Ingester
	srv     *server.Server
	handle  *server.DetectorHandle
	trk     *tracker.Tracker
	// act is the F2 activity log: preloaded from -data, marked by ingest.
	act *activity.Log

	httpLn   net.Listener
	eventsLn net.Listener // non-nil only for tcp:// sources

	// panics/restarts back segugiod_panics_total and
	// segugiod_source_restarts_total; shared by the ingest workers, the
	// HTTP handlers, and the source supervisors.
	panics   *metrics.Counter
	restarts *metrics.Counter

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

func newDaemon(opts options, logger *slog.Logger) (*daemon, error) {
	start := time.Now()
	d := &daemon{
		opts:   opts,
		logger: logger,
		log:    obs.Component(logger, "daemon"),
		conns:  make(map[net.Conn]struct{}),
	}

	suffixes := dnsutil.DefaultSuffixList()
	if opts.pslPath != "" {
		f, err := os.Open(opts.pslPath)
		if err != nil {
			return nil, err
		}
		sl, err := dnsutil.ParseSuffixList(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("psl: %w", err)
		}
		suffixes = sl
	}

	bl := intel.NewBlacklist()
	wl := intel.NewWhitelist(nil)
	act := activity.NewLog()
	d.act = act
	if opts.dataDir != "" {
		var err error
		bl, wl, err = loadLabels(opts.dataDir)
		if err != nil {
			return nil, err
		}
	}

	d.reg = metrics.NewRegistry()
	d.panics = d.reg.NewCounter("segugiod_panics_total",
		"Panics recovered anywhere in the daemon (ingest workers, HTTP handlers, sources).", "")
	d.restarts = d.reg.NewCounter("segugiod_source_restarts_total",
		"Supervised event-source restarts after a failure.", "")

	// One latency histogram per pipeline stage; the tracer feeds them
	// through OnStage so internal/obs stays metrics-agnostic. Span names
	// outside the stage set (http.* roots) are recorded in traces only.
	stageHist := make(map[string]*metrics.Histogram, len(obs.Stages()))
	for _, stage := range obs.Stages() {
		stageHist[stage] = d.reg.NewHistogram("segugiod_stage_seconds",
			"Pipeline stage latency in seconds, by stage.",
			metrics.Labels("stage", stage), nil)
	}
	d.tracer = obs.NewTracer(obs.TracerConfig{
		RingSize:      opts.traceRing,
		SlowThreshold: opts.slowTrace,
		Logger:        obs.Component(logger, "trace"),
		OnStage: func(stage string, seconds float64) {
			if h := stageHist[stage]; h != nil {
				h.Observe(seconds)
			}
		},
		// The sampled parse meter books whole line/record groups in one
		// call; ObserveN keeps the histogram's count exact without one
		// Observe per line.
		OnStageN: func(stage string, seconds float64, n int) {
			if h := stageHist[stage]; h != nil {
				h.ObserveN(seconds, int64(n))
			}
		},
	})

	auditCfg := obs.AuditConfig{RingSize: opts.auditRing}
	if opts.stateDir != "" {
		auditCfg.Dir = filepath.Join(opts.stateDir, "audit")
	}
	var err error
	d.audit, err = obs.OpenAudit(auditCfg)
	if err != nil {
		return nil, fmt.Errorf("open audit trail: %w", err)
	}

	// The health state machine aggregates overload signals from every
	// stage (ingest queues, WAL latency, classify-pass overruns, the heap
	// watermark). Transitions are logged and land in the audit trail so a
	// post-mortem can line up detections with degradation windows.
	healthLog := obs.Component(logger, "health")
	d.health = health.New(health.Config{
		OnTransition: func(tr health.Transition) {
			level := slog.LevelWarn
			if tr.To == health.Healthy.String() {
				level = slog.LevelInfo
			}
			healthLog.Log(context.Background(), level, "health state changed",
				"from", tr.From, "to", tr.To,
				"signal", tr.Signal, "reason", tr.Reason)
			if err := d.audit.Append(obs.AuditRecord{
				Time:   tr.Time,
				Reason: obs.ReasonHealthTransition,
				Note: fmt.Sprintf("%s -> %s (signal %s: %s)",
					tr.From, tr.To, tr.Signal, tr.Reason),
			}); err != nil {
				healthLog.Warn("health transition audit failed", "err", err)
			}
		},
	})
	// Gauge reads the live state on every scrape, so decayed (TTL-expired)
	// signals show up without anyone polling State() in between.
	d.reg.NewGaugeFunc("segugiod_health_state",
		"Daemon health state machine: 0 healthy, 1 degraded, 2 overloaded.", "",
		func() float64 { return float64(d.health.State()) })

	// Event-time watermarks: every source advances a day frontier at
	// dispatch and each downstream stage acks the days it completes; the
	// gauges render how long each stage has been behind its frontier.
	d.wm = obs.NewWatermarks()
	d.wm.Register(obs.WatermarkScoreCache, obs.WatermarkSourceAll)
	d.reg.NewGaugeVecFunc("segugiod_watermark_lag_seconds",
		"Seconds each pipeline stage has been behind its source's event-day frontier (0: caught up), by stage and source.",
		func() []metrics.LabeledValue {
			marks := d.wm.Marks()
			out := make([]metrics.LabeledValue, 0, len(marks))
			for _, m := range marks {
				out = append(out, metrics.LabeledValue{
					Labels: metrics.Labels("stage", m.Stage, "source", m.Source),
					Value:  m.LagSeconds,
				})
			}
			return out
		})
	d.reg.NewGaugeVecFunc("segugiod_watermark_day",
		"Last event day acknowledged per pipeline stage (ingest rows carry the source frontier), by stage and source.",
		func() []metrics.LabeledValue {
			marks := d.wm.Marks()
			out := make([]metrics.LabeledValue, 0, len(marks))
			for _, m := range marks {
				if !m.HasDay {
					continue
				}
				out = append(out, metrics.LabeledValue{
					Labels: metrics.Labels("stage", m.Stage, "source", m.Source),
					Value:  float64(m.Day),
				})
			}
			return out
		})

	ingMetrics := &ingest.Metrics{
		EventsIngested: d.reg.NewCounter("segugiod_ingest_events_total",
			"Events applied to the live graph.", ""),
		EventsDropped: d.reg.NewCounter("segugiod_ingest_dropped_total",
			"Events dropped because a shard queue was full.", ""),
		EventsStale: d.reg.NewCounter("segugiod_ingest_stale_total",
			"Events discarded for belonging to a rotated-out day.", ""),
		ParseErrors: d.reg.NewCounter("segugiod_ingest_parse_errors_total",
			"Malformed input skipped or aborted: bad text lines (abort stdin/TCP streams, skipped by tail and tracedns sources) and corrupt binary frames (always skipped).", ""),
		Rotations: d.reg.NewCounter("segugiod_ingest_rotations_total",
			"Day-boundary epoch rotations.", ""),
		GraphMachines: d.reg.NewGauge("segugiod_graph_machines",
			"Machines in the live behavior graph.", ""),
		GraphDomains: d.reg.NewGauge("segugiod_graph_domains",
			"Domains in the live behavior graph.", ""),
		GraphObservations: d.reg.NewGauge("segugiod_graph_observations",
			"Raw query observations in the live behavior graph.", ""),
		Panics: d.panics,
		TailReopens: d.reg.NewCounter("segugiod_tail_reopens_total",
			"Tailed-file reopens forced by rotation or truncation.", ""),
		WALAppendFailures: d.reg.NewCounter("segugiod_wal_append_failures_total",
			"Applied batches that could not be logged to the WAL.", ""),
		SnapshotSeconds: d.reg.NewHistogram("segugiod_snapshot_seconds",
			"Latency of taking one live-graph snapshot (incremental merge + labeling).", "", nil),
		// Registered whatever policy is active, so the series scrapes as
		// zero from the first exposition.
		EventsShed: map[string]*metrics.Counter{
			ingest.ShedDropOldest: d.reg.NewCounter("segugiod_ingest_shed_total",
				"Unacknowledged events shed by the overload policy, by reason.",
				metrics.Labels("reason", ingest.ShedDropOldest)),
		},
	}
	// Per-shard apply instrumentation: one series per graph shard, so a
	// hot or stalled shard is visible in isolation.
	for s := 0; s < opts.workers; s++ {
		lbl := metrics.Labels("shard", strconv.Itoa(s))
		ingMetrics.ShardEvents = append(ingMetrics.ShardEvents, d.reg.NewCounter(
			"segugiod_shard_events_total",
			"Events applied to the live graph, by graph shard.", lbl))
		ingMetrics.ShardApplySeconds = append(ingMetrics.ShardApplySeconds, d.reg.NewHistogram(
			"segugiod_shard_apply_seconds",
			"Latency of applying one event batch to its graph shard, including shard-lock wait.", lbl, nil))
	}

	ingLog := obs.Component(logger, "ingest")
	ingCfg := ingest.Config{
		Network:          opts.network,
		StartDay:         opts.startDay,
		Suffixes:         suffixes,
		Workers:          opts.workers,
		QueueDepth:       opts.queue,
		Activity:         act,
		ActivityKeepDays: opts.keepDays,
		PrepareSnapshot: func(g *graph.Graph) {
			g.ApplyLabels(graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: g.Day()})
		},
		OnRotate: func(day int, final *graph.Graph) {
			ingLog.Info("epoch rotated",
				"day", day, "machines", final.NumMachines(), "domains", final.NumDomains())
		},
		Metrics:    ingMetrics,
		Tracer:     d.tracer,
		Health:     d.health,
		ShedPolicy: opts.shedPolicy,
		Watermarks: d.wm,
		ApplyHook:  opts.applyHook,
	}
	// The history loads run beside state recovery and the model load. They
	// share only the activity log, whose preload is a union with the
	// replay's marks; nothing labels a snapshot or serves a request before
	// the join below.
	waitHistory := startHistory(opts.dataDir, opts.startDay, act, bl, wl, suffixes)
	var (
		stateErr  error
		recoveryS float64
	)
	if opts.stateDir == "" {
		d.ing = ingest.New(ingCfg)
	} else {
		durMetrics := &ingest.DurableMetrics{
			WAL: wal.Metrics{
				Appends: d.reg.NewCounter("segugiod_wal_appends_total",
					"Records appended to the write-ahead log.", ""),
				Bytes: d.reg.NewCounter("segugiod_wal_bytes_total",
					"Bytes appended to the write-ahead log.", ""),
				Syncs: d.reg.NewCounter("segugiod_wal_syncs_total",
					"Write-ahead log fsync batches.", ""),
				TornRecords: d.reg.NewCounter("segugiod_wal_torn_records_total",
					"Torn or corrupt trailing WAL records truncated at startup.", ""),
				Segments: d.reg.NewGauge("segugiod_wal_segments",
					"Live WAL segment files.", ""),
			},
			ReplayedEvents: d.reg.NewCounter("segugiod_recovery_replayed_events_total",
				"Events re-applied from the WAL during startup recovery.", ""),
			ReplayErrors: d.reg.NewCounter("segugiod_recovery_replay_errors_total",
				"Intact WAL records skipped during recovery because they did not parse.", ""),
			CheckpointFallbacks: d.reg.NewCounter("segugiod_recovery_checkpoint_fallbacks_total",
				"Recoveries that discarded a corrupt checkpoint for the previous generation.", ""),
			Checkpoints: d.reg.NewCounter("segugiod_checkpoints_total",
				"Checkpoints durably written.", ""),
			CheckpointFailures: d.reg.NewCounter("segugiod_checkpoint_failures_total",
				"Checkpoint attempts that failed.", ""),
			LastCheckpointUnix: d.reg.NewGauge("segugiod_last_checkpoint_unix",
				"Wall-clock second of the newest durable checkpoint.", ""),
		}
		var info *ingest.RecoveryInfo
		t0 := time.Now()
		d.ing, info, stateErr = ingest.OpenDurable(ingCfg, ingest.DurableConfig{
			Dir:             opts.stateDir,
			CheckpointEvery: opts.ckptInterval,
			SyncEvery:       opts.walSyncEvery,
			Metrics:         durMetrics,
			WALHooks:        opts.walHooks,
		})
		recoveryS = time.Since(t0).Seconds()
		if stateErr != nil {
			stateErr = fmt.Errorf("open state %s: %w", opts.stateDir, stateErr)
		} else {
			ingLog.Info("state recovered", "dir", opts.stateDir, "summary", info.String())
		}
	}
	if opts.model != "" && stateErr == nil {
		d.handle, stateErr = server.OpenDetector(opts.model)
	}
	abuse, historyS, histErr := waitHistory()
	if err := errors.Join(histErr, stateErr); err != nil {
		if d.ing != nil {
			d.ing.Shutdown()
		}
		return nil, err
	}
	// Queue depth is a ring (worker) property, sampled at scrape time so a
	// backed-up shard shows up without a poll loop.
	d.reg.NewGaugeVecFunc("segugiod_shard_queue_depth",
		"Events queued per ingest ring shard, summed across attached sources.",
		func() []metrics.LabeledValue {
			depths := d.ing.QueueDepths()
			out := make([]metrics.LabeledValue, len(depths))
			for s, n := range depths {
				out[s] = metrics.LabeledValue{
					Labels: metrics.Labels("shard", strconv.Itoa(s)),
					Value:  float64(n),
				}
			}
			return out
		})

	// The embedded stats store self-scrapes the registry (run drives the
	// cadence); it must exist before the SLO evaluator that queries it.
	d.stats = tsdb.New(tsdb.Config{
		Registry:  d.reg,
		Interval:  opts.statsInterval,
		Retention: opts.statsRetention,
	})
	if opts.sloConfig != "" {
		sloCfg, err := slo.Load(opts.sloConfig)
		if err != nil {
			d.ing.Shutdown()
			return nil, fmt.Errorf("slo config %s: %w", opts.sloConfig, err)
		}
		d.sloEval = slo.NewEvaluator(sloCfg, slo.EvaluatorConfig{
			Store:  d.stats,
			Health: d.health,
			Audit:  d.audit,
			Day:    d.ing.Day,
			Logger: obs.Component(logger, "slo"),
		})
		d.reg.NewGaugeVecFunc("segugiod_slo_burn_rate",
			"Error-budget burn rate per SLO objective and window (>= the threshold in both windows fires the objective).",
			func() []metrics.LabeledValue {
				burns := d.sloEval.Burns()
				out := make([]metrics.LabeledValue, 0, len(burns))
				for _, b := range burns {
					out = append(out, metrics.LabeledValue{
						Labels: metrics.Labels("objective", b.Objective, "window", b.Window),
						Value:  b.Value,
					})
				}
				return out
			})
		d.reg.NewGaugeVecFunc("segugiod_slo_firing",
			"Whether each SLO objective is currently firing (1) or within budget (0).",
			func() []metrics.LabeledValue {
				firing := d.sloEval.Firing()
				out := make([]metrics.LabeledValue, 0, len(firing))
				for _, f := range firing {
					out = append(out, metrics.LabeledValue{
						Labels: metrics.Labels("objective", f.Objective),
						Value:  f.Value,
					})
				}
				return out
			})
	}

	d.trk = tracker.New()
	d.srv = server.New(server.Config{
		Graphs:       d.ing,
		Detector:     d.handle,
		Activity:     act,
		Abuse:        abuse,
		Registry:     d.reg,
		Panics:       d.panics,
		Tracker:      d.trk,
		EnablePprof:  opts.pprof,
		Logger:       logger,
		Tracer:       d.tracer,
		Audit:        d.audit,
		PassDeadline: opts.passDeadline,
		MaxInflight:  opts.maxInflight,
		Health:       d.health,
		PassHook:     opts.passHook,
		Stats:        d.stats,
		Watermarks:   d.wm,
	})

	d.httpLn, err = net.Listen("tcp", opts.listen)
	if err != nil {
		d.ing.Shutdown()
		return nil, fmt.Errorf("listen %s: %w", opts.listen, err)
	}
	if addr, ok := strings.CutPrefix(opts.events, "tcp://"); ok {
		d.eventsLn, err = net.Listen("tcp", addr)
		if err != nil {
			d.httpLn.Close()
			d.ing.Shutdown()
			return nil, fmt.Errorf("listen events %s: %w", addr, err)
		}
	}
	// One record names the long pole of the start.
	d.log.Info("start-up complete",
		"activity_s", historyS[0], "pdns_s", historyS[1],
		"recovery_s", recoveryS, "total_s", time.Since(start).Seconds())
	return d, nil
}

// loadLabels reads the files segugiod labels snapshots with, required
// once -data is given: blacklist.tsv and whitelist.txt.
func loadLabels(dir string) (bl *intel.Blacklist, wl *intel.Whitelist, err error) {
	if err := readFile(filepath.Join(dir, "blacklist.tsv"), func(f *os.File) (err error) {
		bl, err = logio.ReadBlacklist(f)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := readFile(filepath.Join(dir, "whitelist.txt"), func(f *os.File) (err error) {
		wl, err = logio.ReadWhitelist(f)
		return err
	}); err != nil {
		return nil, nil, err
	}
	return bl, wl, nil
}

// startHistory loads dir's optional history files on two goroutines:
// activity.tsv into act (F2) and pdns.tsv into an abuse index (F3) whose
// verdicts read bl and wl. wait returns the index (nil without pdns.tsv),
// each load's wall seconds and every load error.
func startHistory(dir string, day int, act *activity.Log, bl *intel.Blacklist, wl *intel.Whitelist, suffixes *dnsutil.SuffixList) (wait func() (*pdns.AbuseIndex, [2]float64, error)) {
	var (
		wg    sync.WaitGroup
		abuse *pdns.AbuseIndex
		secs  [2]float64
		errs  [2]error
	)
	load := func(i int, name string, fn func(f *os.File) error) {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); dir == "" || err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = readFile(path, fn)
			secs[i] = time.Since(t0).Seconds()
		}()
	}
	load(0, "activity.tsv", func(f *os.File) error {
		return logio.ReadActivity(bufio.NewReader(f), act, suffixes)
	})
	load(1, "pdns.tsv", func(f *os.File) error {
		db := pdns.NewDB()
		if err := logio.ReadPDNS(bufio.NewReader(f), db); err != nil {
			return err
		}
		abuse = pdns.BuildAbuseIndex(db, day-150, day-1, func(d string) pdns.Verdict {
			if bl.Contains(d, day) {
				return pdns.VerdictMalware
			}
			if wl.ContainsDomain(d, suffixes) {
				return pdns.VerdictBenign
			}
			return pdns.VerdictUnknown
		})
		return nil
	})
	return func() (*pdns.AbuseIndex, [2]float64, error) {
		wg.Wait()
		return abuse, secs, errors.Join(errs[:]...)
	}
}

func readFile(path string, fn func(f *os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// run serves until ctx is canceled, then shuts down in order: stop
// accepting events, drain the ingest queues, stop the HTTP server.
func (d *daemon) run(ctx context.Context, stdin io.Reader) error {
	httpSrv := &http.Server{
		Handler: d.srv.Handler(),
		// Slowloris and fd-leak protection: a client must finish its
		// headers promptly and keep-alive connections do not linger forever.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(d.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	d.log.Info("HTTP API listening", "addr", d.httpLn.Addr().String())

	var sources sync.WaitGroup
	srcCtx, cancelSources := context.WithCancel(ctx)
	defer cancelSources()
	switch {
	case strings.HasPrefix(d.opts.events, "tracedns:"):
		target := strings.TrimPrefix(d.opts.events, "tracedns:")
		sources.Add(1)
		if target == "-" {
			go func() {
				defer sources.Done()
				if stdin == nil {
					return
				}
				if err := d.ing.ConsumeTraceDNS(stdin); err != nil && !errors.Is(err, ingest.ErrShuttingDown) {
					d.log.Error("trace_dns stdin stream failed", "err", err)
				}
			}()
			break
		}
		d.log.Info("tailing trace_dns JSONL", "path", target)
		go func() {
			defer sources.Done()
			tailer := d.ing.NewTraceDNSTailer(target, 0)
			err := ingest.Supervise(srcCtx, d.supervisorConfig("tracedns-tail"), tailer.Run)
			if err != nil {
				d.log.Error("trace_dns tail failed", "path", target, "err", err)
			}
		}()
	case d.eventsLn != nil:
		d.log.Info("event listener started", "addr", "tcp://"+d.eventsLn.Addr().String())
		sources.Add(1)
		go func() {
			defer sources.Done()
			err := ingest.Supervise(srcCtx, d.supervisorConfig("events-listener"), d.acceptEvents)
			if err != nil {
				d.log.Error("event listener failed", "err", err)
			}
		}()
	case d.opts.events == "-":
		if stdin != nil {
			sources.Add(1)
			go func() {
				defer sources.Done()
				if err := d.ing.Consume(stdin); err != nil && !errors.Is(err, ingest.ErrShuttingDown) {
					d.log.Error("stdin stream failed", "err", err)
				}
			}()
		}
	default:
		d.log.Info("tailing events file", "path", d.opts.events)
		sources.Add(1)
		go func() {
			defer sources.Done()
			// Supervision makes the tail robust to the file not existing
			// yet and to transient I/O errors: the source restarts with
			// backoff instead of silently dying for the daemon's lifetime.
			// One Tailer is shared across restarts so each run resumes at
			// the last fully consumed line instead of re-ingesting (and
			// double-counting) the whole file.
			tailer := d.ing.NewTailer(d.opts.events, 0)
			err := ingest.Supervise(srcCtx, d.supervisorConfig("tail"), tailer.Run)
			if err != nil {
				d.log.Error("tail failed", "path", d.opts.events, "err", err)
			}
		}()
	}

	// Periodic tracker pass (see trackerTick).
	if d.opts.classifyEvery > 0 && d.handle != nil {
		sources.Add(1)
		go func() {
			defer sources.Done()
			tick := time.NewTicker(d.opts.classifyEvery)
			defer tick.Stop()
			for {
				select {
				case <-srcCtx.Done():
					return
				case <-tick.C:
				}
				d.trackerTick(srcCtx)
			}
		}()
	}

	// Heap watermark sampler: crossing -mem-watermark-mb asserts the
	// memory signal as overloaded with a short decay, so the state falls
	// back on its own once the heap shrinks below the line.
	if d.opts.memWatermarkMB > 0 {
		watermark := uint64(d.opts.memWatermarkMB) << 20
		sources.Add(1)
		go func() {
			defer sources.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-srcCtx.Done():
					return
				case <-tick.C:
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse >= watermark {
					d.health.SetFor("memory", health.Overloaded,
						fmt.Sprintf("heap in use %d MiB >= watermark %d MiB",
							ms.HeapInuse>>20, d.opts.memWatermarkMB),
						3*time.Second)
				}
			}
		}()
	}

	// Embedded stats store: self-scrape the registry on the configured
	// cadence so /v1/stats/query can answer windowed rate/quantile
	// queries over the daemon's own metrics.
	if d.stats != nil && d.opts.statsInterval > 0 {
		sources.Add(1)
		go func() {
			defer sources.Done()
			tick := time.NewTicker(d.opts.statsInterval)
			defer tick.Stop()
			for {
				select {
				case <-srcCtx.Done():
					return
				case <-tick.C:
				}
				d.stats.Scrape()
			}
		}()
	}

	// SLO burn-rate evaluator: each pass re-derives every objective's
	// fast/slow-window burn from the stats store and feeds TTL'd signals
	// into the health state machine (the TTL outlives one interval, so a
	// dead evaluator auto-recovers to healthy).
	if d.sloEval != nil {
		sources.Add(1)
		go func() {
			defer sources.Done()
			tick := time.NewTicker(d.sloEval.Interval())
			defer tick.Stop()
			for {
				select {
				case <-srcCtx.Done():
					return
				case <-tick.C:
				}
				d.sloEval.EvalOnce()
			}
		}()
	}

	// SIGHUP: hot-reload the detector without restarting.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if d.handle == nil {
				d.log.Warn("SIGHUP ignored: no detector configured")
				continue
			}
			if err := d.srv.ReloadForSignal(); err != nil {
				d.log.Error("SIGHUP reload failed", "err", err)
			} else {
				d.log.Info("SIGHUP: detector reloaded", "path", d.handle.Path())
			}
		}
	}()

	var serveErr error
	select {
	case <-ctx.Done():
	case serveErr = <-httpErr:
	}

	// Shutdown order matters: stop the event sources first so the
	// ingester's queues stop refilling, drain them, then stop HTTP.
	cancelSources()
	if d.eventsLn != nil {
		d.eventsLn.Close()
	}
	d.closeConns()
	d.ing.Shutdown()
	sources.Wait()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && serveErr == nil {
		serveErr = err
	}

	// Leave a post-mortem trail behind: flush and seal the audit log, and
	// snapshot the flight recorder and the stats store next to the rest
	// of the durable state.
	if d.opts.stateDir != "" {
		if err := d.writeTraceSnapshot(); err != nil {
			d.log.Warn("trace snapshot failed", "err", err)
		}
		if err := d.writeStatsSnapshot(); err != nil {
			d.log.Warn("stats snapshot failed", "err", err)
		}
	}
	if err := d.audit.Close(); err != nil {
		d.log.Warn("audit close failed", "err", err)
	}
	d.log.Info("shut down cleanly")
	return serveErr
}

// trackerTick is one beat of -classify-every: one classify-all pass, fold
// the detections into the cross-day tracker, and log
// the day diff. Failures (e.g. the graph not labeled yet at startup)
// only log. After a rotation the pass is handed the finished day's last
// graph (see ingest.SnapshotSince); the new day's first pass then runs at
// once instead of waiting out another interval — one follow-up per tick
// at most, so a pass that keeps reporting an old day (served stale after
// a deadline overrun) cannot turn the ticker into a spin.
func (d *daemon) trackerTick(ctx context.Context) {
	log := obs.Component(d.logger, "tracker")
	for passes := 0; passes < 2; passes++ {
		diff, err := d.srv.RunTrackerPass(ctx)
		if err != nil {
			log.Warn("tracker pass failed", "err", err)
			return
		}
		if len(diff.New) > 0 || len(diff.Dormant) > 0 {
			log.Info("tracker day diff", "day", diff.Day,
				"new", len(diff.New), "recurring", len(diff.Recurring),
				"dormant", len(diff.Dormant))
		}
		if diff.Day >= d.ing.Day() {
			return
		}
	}
}

// writeTraceSnapshot dumps the flight recorder to state/traces.json so a
// graceful stop preserves the recent and slowest traces for post-mortem
// inspection. core.WriteAtomic gives the same torn-write guarantees as
// the checkpoints: fsynced temp file renamed into place.
func (d *daemon) writeTraceSnapshot() error {
	return writeJSONSnapshot(filepath.Join(d.opts.stateDir, "traces.json"), d.tracer.Dump())
}

// writeStatsSnapshot dumps the embedded time-series store to
// state/stats.json, so the freshness and latency history leading up to a
// stop survives for post-mortem queries.
func (d *daemon) writeStatsSnapshot() error {
	if d.stats == nil {
		return nil
	}
	return writeJSONSnapshot(filepath.Join(d.opts.stateDir, "stats.json"), d.stats.Dump())
}

// writeJSONSnapshot atomically writes v as indented JSON.
func writeJSONSnapshot(path string, v any) error {
	return core.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// supervisorConfig builds the restart policy shared by the daemon's
// event sources: back off exponentially with jitter, never give up (the
// context ending is the only way out), and feed the shared counters.
func (d *daemon) supervisorConfig(name string) ingest.SupervisorConfig {
	return ingest.SupervisorConfig{
		Name:     name,
		Restarts: d.restarts,
		Panics:   d.panics,
		Logger:   obs.Component(d.logger, "source"),
	}
}

// acceptEvents accepts streaming connections, feeding each to the
// ingester. Connections beyond the -max-event-conns cap are refused
// immediately, and each accepted connection carries a rolling read
// deadline so an idle peer cannot pin a slot forever. A nil return means
// shutdown; any other accept failure is handed to the supervisor.
func (d *daemon) acceptEvents(ctx context.Context) error {
	var conns sync.WaitGroup
	defer conns.Wait()
	var sem chan struct{}
	if d.opts.maxEventConns > 0 {
		sem = make(chan struct{}, d.opts.maxEventConns)
	}
	for {
		conn, err := d.eventsLn.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil // listener closed during shutdown
			}
			return err
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				d.log.Warn("event stream refused",
					"remote", conn.RemoteAddr().String(), "open", d.opts.maxEventConns)
				conn.Close()
				continue
			}
		}
		d.trackConn(conn, true)
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer d.trackConn(conn, false)
			defer conn.Close()
			if sem != nil {
				defer func() { <-sem }()
			}
			r := io.Reader(conn)
			if d.opts.eventIdleTimeout > 0 {
				r = &deadlineReader{conn: conn, timeout: d.opts.eventIdleTimeout}
			}
			if err := d.ing.Consume(r); err != nil &&
				!errors.Is(err, ingest.ErrShuttingDown) && ctx.Err() == nil {
				d.log.Warn("event stream failed",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
		}()
	}
}

// deadlineReader arms a fresh read deadline before every read, turning a
// silent idle peer into a timeout error that releases the connection.
// It never slows a read down: what a full shard ring does to its source
// is -shed-policy's call alone (block parks the reader inside the
// ingester, and the unread socket is the backpressure the sender feels).
type deadlineReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	r.conn.SetReadDeadline(time.Now().Add(r.timeout))
	return r.conn.Read(p)
}

func (d *daemon) trackConn(c net.Conn, add bool) {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if add {
		d.conns[c] = struct{}{}
	} else {
		delete(d.conns, c)
	}
}

// closeConns unblocks Consume loops stuck reading idle connections.
func (d *daemon) closeConns() {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	for c := range d.conns {
		c.Close()
	}
}
