// Package server is segugiod's HTTP surface: a stdlib net/http JSON API
// for online classification against the live behavior graph, per-domain
// evidence lookups, health, Prometheus metrics, and detector hot-reload.
//
//	POST /v1/classify      score a batch of domains (or all unknowns)
//	GET  /v1/domains/{name} evidence for one domain
//	GET  /v1/audit         detection audit trail (?domain=, ?limit=)
//	POST /v1/reload        reload the detector from disk
//	GET  /healthz          liveness + basic state
//	GET  /metrics          Prometheus text exposition
//	GET  /debug/obs/traces flight-recorder dump (recent + slowest traces)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/features"
	"segugio/internal/graph"
	"segugio/internal/health"
	"segugio/internal/metrics"
	"segugio/internal/obs"
	"segugio/internal/pdns"
	"segugio/internal/tracker"
	"segugio/internal/tsdb"
)

// GraphSource supplies immutable snapshots of the live behavior graph.
// *ingest.Ingester implements it; tests may use anything.
type GraphSource interface {
	// Snapshot returns a labeled, immutable graph plus a version counter
	// that moves whenever the underlying graph changes.
	Snapshot() (*graph.Graph, uint64)
	// SnapshotSince returns the current snapshot plus the delta of
	// domains whose adjacency, labels, or resolved IPs changed since the
	// given version. An inexact delta means the span could not be
	// reconstructed (first snapshot, rotation, history evicted) and the
	// caller must treat every domain as dirty. An exact delta also says the
	// returned graph continues the builder lineage of the snapshot at
	// since: node ids are stable (the session's frozen prune plan and the
	// pass's by-id index are both keyed on them). The pass reads the
	// delta's IDs, not its Domains.
	SnapshotSince(since uint64) (*graph.Graph, uint64, graph.Delta)
	// Day returns the current observation day.
	Day() int
	// Version returns the version the next Snapshot would carry, without
	// taking one.
	Version() uint64
}

// loadedModel is one load of the detector file: the detector, the
// classify session that memoizes its prune pipeline across passes and
// lookups, and when it was loaded. Detector configuration is immutable per
// detector, so the two are made together: a reload is a fresh session by
// construction, and a pass scored under another loadedModel is a pass
// whose rows no longer hold.
type loadedModel struct {
	det      *core.Detector
	session  *core.ClassifySession
	loadedAt time.Time
}

// DetectorHandle holds the deployed detector and supports atomic
// hot-reload from its file (POST /v1/reload or SIGHUP). A reload that
// fails — unreadable file, incompatible format version — leaves the
// previous detector serving.
type DetectorHandle struct {
	path string
	cur  atomic.Pointer[loadedModel]
}

// OpenDetector loads the detector file and returns a reloadable handle.
func OpenDetector(path string) (*DetectorHandle, error) {
	h := &DetectorHandle{path: path}
	if err := h.Reload(); err != nil {
		return nil, err
	}
	return h, nil
}

// Get returns the current detector and when it was loaded.
func (h *DetectorHandle) Get() (*core.Detector, time.Time) {
	m := h.cur.Load()
	return m.det, m.loadedAt
}

// Path returns the file the handle reloads from.
func (h *DetectorHandle) Path() string { return h.path }

// Reload re-reads the detector file, swapping it in atomically on
// success and keeping the old detector on any failure.
func (h *DetectorHandle) Reload() error {
	f, err := os.Open(h.path)
	if err != nil {
		return fmt.Errorf("server: reload detector: %w", err)
	}
	defer f.Close()
	det, err := core.LoadDetector(f)
	if err != nil {
		return fmt.Errorf("server: reload detector %s: %w", h.path, err)
	}
	h.install(det)
	return nil
}

// install makes det, with a fresh session, the current model.
func (h *DetectorHandle) install(det *core.Detector) {
	h.cur.Store(&loadedModel{det: det, session: det.NewSession(), loadedAt: time.Now()})
}

// Age reports how long ago the current detector was loaded.
func (h *DetectorHandle) Age() time.Duration {
	return time.Since(h.cur.Load().loadedAt)
}

// Config wires a Server.
type Config struct {
	// Graphs supplies live graph snapshots; required.
	Graphs GraphSource
	// Detector serves and hot-reloads the classifier; nil means no
	// detector is configured and classification endpoints answer 503.
	Detector *DetectorHandle
	// Activity backs the F2 features at classification time; may be nil.
	Activity *activity.Log
	// Abuse backs the F3 features; may be nil.
	Abuse *pdns.AbuseIndex
	// Registry receives the server's own metrics and is rendered by
	// GET /metrics; required.
	Registry *metrics.Registry
	// MaxClassifyDomains bounds one classify request (default 10000).
	MaxClassifyDomains int
	// Panics, when non-nil, counts panics recovered in HTTP handlers: the
	// panicking request is answered 500 instead of killing the daemon.
	Panics *metrics.Counter
	// Tracker, when non-nil, accumulates detections across observation
	// days; GET /v1/tracker reads it and every completed classify-all
	// pass feeds it.
	Tracker *tracker.Tracker
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API
	// mux, so live snapshot and classification cost is profileable
	// in production without a rebuild.
	EnablePprof bool
	// Logger receives structured request and detection records; nil
	// discards them.
	Logger *slog.Logger
	// Tracer records classify/tracker-pass spans and backs
	// GET /debug/obs/traces; nil disables tracing (the endpoint then
	// serves an empty dump).
	Tracer *obs.Tracer
	// Audit, when non-nil, receives one record per newly detected domain
	// from classify-all and tracker passes, and backs GET /v1/audit.
	Audit *obs.AuditLog
	// PassDeadline bounds one classify/tracker pass. A pass that blows
	// the deadline is cancelled mid-sweep; classify-all then serves the
	// last-good cached scores stale-marked, and repeated overruns
	// escalate the Health tracker to degraded. Zero disables the bound.
	PassDeadline time.Duration
	// MaxInflight caps concurrently executing requests per endpoint;
	// excess requests are rejected immediately with 429 (503 when
	// overloaded) and a Retry-After header. Probe endpoints (healthz,
	// readyz, metrics) are exempt. Zero disables admission control.
	MaxInflight int
	// Health, when non-nil, is the daemon's overload state machine: the
	// server feeds it pass-overrun signals and exposes it on /healthz,
	// /readyz, and in admission-control status codes.
	Health *health.Tracker
	// PassHook, when non-nil, runs at the start of every classify-all
	// pass with the pass context — the chaos harness's stall seam.
	// Production configs leave it nil.
	PassHook func(ctx context.Context)
	// Stats, when non-nil, is the embedded time-series store behind
	// GET /v1/stats/query; nil means the endpoint answers 503.
	Stats *tsdb.Store
	// Watermarks, when non-nil, supplies pipeline freshness marks: the
	// score_cache stage acks the graph day after each successful
	// classify-all pass.
	Watermarks *obs.Watermarks
}

// Server is the daemon's HTTP API. Create with New, then serve its
// Handler.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	log      *slog.Logger // component=http
	auditLog *slog.Logger // component=audit

	reqTotal    map[string]*metrics.Counter
	reqLat      map[string]*metrics.Histogram
	reqErrors   *metrics.Counter
	classifyLat *metrics.Histogram
	domainLat   *metrics.Histogram
	reloads     *metrics.Counter
	reloadFails *metrics.Counter
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	pruneHits   *metrics.Counter
	pruneMisses *metrics.Counter
	// lookups counts by-name requests by the snapshot that answered.
	lookupsPass, lookupsLive *metrics.Counter

	passDeadlineExceeded *metrics.Counter
	httpRejected         map[string]*metrics.Counter
	// inflight holds the per-endpoint admission semaphores (nil when
	// MaxInflight is 0).
	inflight map[string]chan struct{}

	// passMu serializes pass production (classifyAll) and guards what only
	// a producer touches: overruns, the count of consecutive
	// deadline-aborted passes (the watchdog escalates the classify_pass
	// health signal to degraded at passOverrunEscalate and any completed
	// pass resets it). Readers never take it: they load pass, the last
	// completed one.
	passMu   sync.Mutex
	overruns int
	pass     atomic.Pointer[pass]
}

// passOverrunEscalate is how many consecutive deadline overruns the
// pass watchdog tolerates before raising the classify_pass health
// signal to degraded. One slow pass is noise; a streak is a stuck or
// overloaded pipeline.
const passOverrunEscalate = 3

// errNotLabeled surfaces a classify-all attempt before the first
// labeling pass; handlers translate it to 503.
var errNotLabeled = errors.New("live graph is not labeled yet")

// New builds the server and registers its metrics.
func New(cfg Config) *Server {
	if cfg.MaxClassifyDomains <= 0 {
		cfg.MaxClassifyDomains = 10000
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.log = obs.Component(cfg.Logger, "http")
	s.auditLog = obs.Component(cfg.Logger, "audit")

	r := cfg.Registry
	s.reqTotal = map[string]*metrics.Counter{}
	s.reqLat = map[string]*metrics.Histogram{}
	for _, h := range []string{"classify", "domains", "healthz", "readyz", "metrics", "reload", "tracker", "traces", "audit", "stats"} {
		s.reqTotal[h] = r.NewCounter("segugiod_http_requests_total",
			"HTTP requests served, by handler.", metrics.Labels("handler", h))
		s.reqLat[h] = r.NewHistogram("segugiod_http_request_seconds",
			"HTTP request latency in seconds, by handler.", metrics.Labels("handler", h), nil)
	}
	s.reqErrors = r.NewCounter("segugiod_http_request_errors_total",
		"HTTP requests answered with a 4xx/5xx status.", "")
	s.classifyLat = r.NewHistogram("segugiod_classify_seconds",
		"Latency of POST /v1/classify.", "", nil)
	s.domainLat = r.NewHistogram("segugiod_domain_lookup_seconds",
		"Latency of GET /v1/domains/{name}.", "", nil)
	s.reloads = r.NewCounter("segugiod_detector_reloads_total",
		"Successful detector reloads.", "")
	s.reloadFails = r.NewCounter("segugiod_detector_reload_failures_total",
		"Failed detector reloads (previous detector kept).", "")
	s.cacheHits = r.NewCounter("segugiod_classify_cache_hits_total",
		"Classify-all domain scores served from the delta cache without re-extraction.", "")
	s.cacheMisses = r.NewCounter("segugiod_classify_cache_misses_total",
		"Classify-all domain scores that required feature re-extraction.", "")
	s.pruneHits = r.NewCounter("segugiod_classify_prune_cache_hits_total",
		"Classify-all passes that reused the memoized prune pipeline (prober filter, prune plan, extractor).", "")
	s.pruneMisses = r.NewCounter("segugiod_classify_prune_cache_misses_total",
		"Classify-all passes that had to recompute the prune pipeline with a full graph scan.", "")
	lookups := func(source string) *metrics.Counter {
		return r.NewCounter("segugiod_lookups_total",
			"By-name requests (GET /v1/domains/{name}, POST /v1/classify with domains) by the snapshot that answered: "+
				"pass is the last completed classify pass's own, with nothing built; live is a fresh snapshot, taken because "+
				"no pass exists yet for the loaded detector (start-up, reload), the pass is of another day (rotation), "+
				"or the pass cannot answer for a requested name (interned since the pass, absent, or a labeled name in a classify).",
			metrics.Labels("source", source))
	}
	s.lookupsPass, s.lookupsLive = lookups("pass"), lookups("live")
	if cfg.Detector != nil {
		r.NewGaugeFunc("segugiod_detector_age_seconds",
			"Seconds since the serving detector was loaded.", "",
			func() float64 { return cfg.Detector.Age().Seconds() })
	}
	r.NewGaugeFunc("segugiod_uptime_seconds", "Seconds since the server started.", "",
		func() float64 { return time.Since(s.start).Seconds() })
	buildInfo := r.NewGauge("segugiod_build_info",
		"Build metadata carried in labels; the value is always 1.",
		metrics.Labels("version", moduleVersion(), "goversion", runtime.Version()))
	buildInfo.SetInt(1)
	if cfg.Audit != nil {
		r.NewGaugeFunc("segugiod_audit_records_total",
			"Audit records appended by this process.", "",
			func() float64 { return float64(cfg.Audit.Appended()) })
	}
	s.passDeadlineExceeded = r.NewCounter("segugiod_pass_deadline_exceeded_total",
		"Classify/tracker passes cancelled for exceeding the pass deadline (last-good cached scores served stale).", "")
	s.httpRejected = map[string]*metrics.Counter{}
	for _, code := range []string{"429", "503"} {
		s.httpRejected[code] = r.NewCounter("segugiod_http_rejected_total",
			"Requests rejected by admission control before reaching a handler, by status code.",
			metrics.Labels("code", code))
	}
	if cfg.MaxInflight > 0 {
		s.inflight = map[string]chan struct{}{}
		// Probe endpoints (healthz, readyz, metrics) are deliberately
		// absent: they must answer even when the daemon is drowning.
		for _, h := range []string{"classify", "domains", "reload", "tracker", "traces", "audit", "stats"} {
			s.inflight[h] = make(chan struct{}, cfg.MaxInflight)
		}
	}

	s.mux.HandleFunc("POST /v1/classify", s.route("classify", s.handleClassify))
	s.mux.HandleFunc("GET /v1/domains/{name}", s.route("domains", s.handleDomain))
	s.mux.HandleFunc("GET /v1/tracker", s.route("tracker", s.handleTracker))
	s.mux.HandleFunc("GET /v1/audit", s.route("audit", s.handleAudit))
	s.mux.HandleFunc("POST /v1/reload", s.route("reload", s.handleReload))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.route("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/obs/traces", s.route("traces", s.handleTraces))
	s.mux.HandleFunc("GET /v1/stats/query", s.route("stats", s.handleStats))
	if cfg.EnablePprof {
		// Explicit registration keeps the daemon off http.DefaultServeMux;
		// pprof.Index serves the sub-profiles (heap, goroutine, ...) itself.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the root http.Handler: the mux wrapped in panic
// recovery, so one poisonous request is answered 500 instead of tearing
// the connection (or, unhandled, the daemon) down.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec) // deliberate connection abort, not a bug
			}
			if s.cfg.Panics != nil {
				s.cfg.Panics.Inc()
			}
			// Best effort: if the handler already wrote headers this is a
			// no-op on the status line, but the request still terminates.
			s.writeError(w, http.StatusInternalServerError, "internal server error")
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// moduleVersion extracts a human-meaningful version from the build info:
// the VCS revision when stamped, else the module version, else "unknown".
func moduleVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			return kv.Value
		}
	}
	if info.Main.Version != "" {
		return info.Main.Version
	}
	return "unknown"
}

// statusRecorder captures the response status for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// route wraps one handler with the per-request observability envelope:
// the request counter and latency histogram for this handler, a request
// ID generated (or propagated from the client) and echoed in
// X-Request-Id, an http.<handler> root span, and one structured log
// record per request carrying the same request_id. High-frequency probe
// endpoints (metrics, healthz) log at Debug so a scraper does not flood
// the journal; everything else logs at Info.
func (s *Server) route(name string, fn http.HandlerFunc) http.HandlerFunc {
	sem := s.inflight[name]
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqTotal[name].Inc()
		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				// Shed instead of queueing: a client retry after backoff
				// beats a request parked behind a saturated handler. 429
				// is transient pressure; 503 says the whole daemon is
				// overloaded and the retry should back off harder.
				code, retry := http.StatusTooManyRequests, "1"
				if s.healthState() == health.Overloaded {
					code, retry = http.StatusServiceUnavailable, "5"
				}
				s.httpRejected[strconv.Itoa(code)].Inc()
				w.Header().Set("Retry-After", retry)
				s.writeError(w, code, "too many in-flight %s requests", name)
				return
			}
		}
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx, span := s.cfg.Tracer.StartSpan(ctx, "http."+name)
		span.SetAttr("request_id", reqID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		fn(rec, r.WithContext(ctx))
		took := time.Since(t0)
		span.SetAttr("status", rec.status)
		span.End()
		s.reqLat[name].ObserveDuration(took)
		level := slog.LevelInfo
		if name == "metrics" || name == "healthz" {
			level = slog.LevelDebug
		}
		s.log.Log(r.Context(), level, "request",
			"request_id", reqID, "handler", name,
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(took.Microseconds())/1000)
	}
}

// writeJSON renders v with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status >= 400 {
		s.reqErrors.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// ClassifyRequest is the POST /v1/classify body. All fields are optional.
type ClassifyRequest struct {
	// Domains restricts scoring to these names; empty scores every
	// unknown domain in the live (pruned) graph.
	Domains []string `json:"domains"`
	// Top caps the detections returned (0 means all scored domains).
	Top int `json:"top"`
	// DetectedOnly keeps only scores at or above the threshold.
	DetectedOnly bool `json:"detectedOnly"`
}

// ClassifyDetection is one scored domain. ScoreVersion is the graph
// version the score was computed at: on the cached classify-all path it
// can lag the response's GraphVersion for domains whose evidence did not
// change between the two snapshots.
type ClassifyDetection struct {
	Domain   string  `json:"domain"`
	Score    float64 `json:"score"`
	Detected bool    `json:"detected"`
	// id is the domain's node id in the graph of the pass the row belongs
	// to (zero on a row no pass holds); it sits in Detected's padding.
	id           int32
	ScoreVersion uint64 `json:"scoreVersion"`
}

// ClassifyResponse is the POST /v1/classify reply. A reply with Domains
// given is served from the last completed pass when that pass can answer
// it (see Server.readSnapshot): GraphVersion is then the pass's, and
// LiveVersion says how far the live graph has moved since.
type ClassifyResponse struct {
	Day          int                 `json:"day"`
	GraphVersion uint64              `json:"graphVersion"`
	Threshold    float64             `json:"threshold"`
	Classified   int                 `json:"classified"`
	Detected     int                 `json:"detected"`
	Missing      []string            `json:"missing,omitempty"`
	Detections   []ClassifyDetection `json:"detections"`
	TookMS       float64             `json:"tookMs"`
	// Stale marks a classify-all reply served from the last completed
	// pass because the current pass blew its deadline: scores, day, and
	// graphVersion all describe that earlier pass. Absent when fresh.
	Stale bool `json:"stale,omitempty"`
	// LiveVersion is the live graph's version when it is ahead of
	// GraphVersion: the reply describes the graph as of the last pass.
	LiveVersion uint64 `json:"liveVersion,omitempty"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	m := s.model()
	if m == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no detector loaded")
		return
	}
	var req ClassifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Domains) > s.cfg.MaxClassifyDomains {
		s.writeError(w, http.StatusBadRequest, "too many domains: %d > %d", len(req.Domains), s.cfg.MaxClassifyDomains)
		return
	}
	for i, d := range req.Domains {
		n, err := dnsutil.Normalize(d)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "domain %q: %v", d, err)
			return
		}
		req.Domains[i] = n
	}

	t0 := time.Now()
	threshold := m.det.Threshold()
	var resp ClassifyResponse
	var rows []ClassifyDetection
	if len(req.Domains) == 0 {
		// Classify-all is the pass: only domains whose evidence changed
		// since the previous one are re-extracted.
		p, stale, err := s.classifyAll(r.Context(), m)
		if errors.Is(err, errNotLabeled) {
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, context.DeadlineExceeded) {
				// Pass overran its deadline and no last-good pass exists
				// to serve stale; ask the client to come back.
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			s.writeError(w, status, "classify: %v", err)
			return
		}
		rows = p.rows
		resp = ClassifyResponse{
			Day:          p.graph.Day(),
			GraphVersion: p.version,
			Classified:   len(p.rows),
			Missing:      p.missingNames(),
			Stale:        stale,
		}
	} else if g, version, p, ids := s.readSnapshot(r.Context(), m, req.Domains, true); p != nil {
		// The last pass answers: its rows for the names it scored, missing
		// for the ones its pruning removed.
		var missing []string
		for i, d := range ids {
			if row, ok := p.row(d); ok {
				rows = append(rows, row)
			} else {
				missing = append(missing, req.Domains[i])
			}
		}
		slices.SortFunc(rows, rowCmp)
		resp = ClassifyResponse{Day: g.Day(), GraphVersion: version, Classified: len(rows), Missing: missing}
	} else {
		// No pass can answer: an ad-hoc query against the fresh snapshot,
		// scored through the same session as the passes (the frozen prune
		// plan is reused while it holds).
		if !g.Labeled() {
			s.writeError(w, http.StatusServiceUnavailable, "%v", errNotLabeled)
			return
		}
		_, clsSpan := s.cfg.Tracer.StartSpan(r.Context(), obs.StageClassify)
		dets, report, err := m.session.ClassifyDelta(core.ClassifyInput{
			Ctx:      r.Context(),
			Graph:    g,
			Activity: s.cfg.Activity,
			Abuse:    s.cfg.Abuse,
			Domains:  req.Domains,
		})
		if err != nil {
			clsSpan.End()
			s.writeError(w, http.StatusInternalServerError, "classify: %v", err)
			return
		}
		clsSpan.RecordChild(obs.StageFeatureExtract, report.Timing.Extract)
		clsSpan.SetAttr("domains", len(req.Domains))
		clsSpan.End()
		rows = make([]ClassifyDetection, 0, len(dets))
		for _, d := range dets {
			rows = append(rows, ClassifyDetection{
				Domain: d.Domain, Score: d.Score,
				Detected: d.Score >= threshold, ScoreVersion: version,
			})
		}
		resp = ClassifyResponse{
			Day:          g.Day(),
			GraphVersion: version,
			Classified:   report.Classified,
			Missing:      report.Missing,
		}
	}
	if len(req.Domains) > 0 {
		if live := s.cfg.Graphs.Version(); live > resp.GraphVersion {
			resp.LiveVersion = live
		}
	}
	took := time.Since(t0)
	s.classifyLat.ObserveDuration(took)
	resp.Threshold = threshold
	resp.TookMS = float64(took.Microseconds()) / 1000

	for _, row := range rows {
		if row.Detected {
			resp.Detected++
		}
		if req.DetectedOnly && !row.Detected {
			continue
		}
		if req.Top > 0 && len(resp.Detections) >= req.Top {
			continue
		}
		resp.Detections = append(resp.Detections, row)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// DomainResponse is the GET /v1/domains/{name} reply: the analyst-facing
// evidence of internal/report. Score and evidence are of one snapshot, the
// one GraphVersion names: the last completed pass's when that pass holds
// the name (see Server.readSnapshot), else a fresh one.
type DomainResponse struct {
	Domain       string `json:"domain"`
	Day          int    `json:"day"`
	GraphVersion uint64 `json:"graphVersion"`
	// LiveVersion is the live graph's version when it is ahead of
	// GraphVersion: the reply describes the graph as of the last pass.
	LiveVersion uint64   `json:"liveVersion,omitempty"`
	Label       string   `json:"label"`
	E2LD        string   `json:"e2ld"`
	Score       *float64 `json:"score,omitempty"`
	Detected    *bool    `json:"detected,omitempty"`
	// ScoreVersion is the graph version the score was computed at; it can
	// lag GraphVersion when the score came from the classify-all cache and
	// this domain's evidence has not changed since.
	ScoreVersion uint64 `json:"scoreVersion,omitempty"`
	// Pruned marks an unknown-labeled domain without a score: the prune
	// rules (R1-R4) removed it from the graph classification runs on.
	Pruned bool `json:"pruned,omitempty"`

	QueryingMachines int     `json:"queryingMachines"`
	InfectedFraction float64 `json:"infectedFraction"`
	UnknownFraction  float64 `json:"unknownFraction"`
	ActiveDays       int     `json:"activeDays"`
	ConsecutiveDays  int     `json:"consecutiveDays"`

	ResolvedIPs           []string `json:"resolvedIps"`
	MalwareIPFraction     float64  `json:"malwareIpFraction"`
	MalwarePrefixFraction float64  `json:"malwarePrefixFraction"`

	Machines []string `json:"machines"`
}

// maxMachinesInResponse caps the per-domain machine enumeration, mirroring
// report.MaxMachinesPerDomain.
const maxMachinesInResponse = 25

// readSnapshot picks the snapshot a by-name request is answered on. The
// published pass's own — then p is that pass, ids are the names' node ids
// in its graph, and the request builds nothing: no snapshot, no prune
// plan, no view — when the pass was scored by the loaded model m, is of
// the source's current day, and holds every name (with unknownOnly: as an
// unknown-labeled domain, the only kind a pass scores). Otherwise a fresh
// snapshot with p nil: no pass yet for this model (start-up, reload) or
// this day (rotation), or a name the pass cannot answer for — interned
// since, absent, or (unknownOnly) carrying a ground-truth label.
func (s *Server) readSnapshot(ctx context.Context, m *loadedModel, names []string, unknownOnly bool) (g *graph.Graph, version uint64, p *pass, ids []int32) {
	if p = s.pass.Load(); p != nil && p.model == m && p.graph.Day() == s.cfg.Graphs.Day() {
		ids = make([]int32, len(names))
		for i, name := range names {
			d, ok := p.graph.DomainIndex(name)
			if !ok || unknownOnly && p.graph.DomainLabel(d) != graph.LabelUnknown {
				ids = nil
				break
			}
			ids[i] = d
		}
		if ids != nil {
			s.lookupsPass.Inc()
			return p.graph, p.version, p, ids
		}
	}
	s.lookupsLive.Inc()
	_, snapSpan := s.cfg.Tracer.StartSpan(ctx, obs.StageSnapshot)
	g, version = s.cfg.Graphs.Snapshot()
	snapSpan.End()
	return g, version, nil, nil
}

func (s *Server) handleDomain(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	name, err := dnsutil.Normalize(r.PathValue("name"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad domain: %v", err)
		return
	}
	m := s.model()
	g, version, p, ids := s.readSnapshot(r.Context(), m, []string{name}, false)
	if !g.Labeled() {
		s.writeError(w, http.StatusServiceUnavailable, "live graph is not labeled yet")
		return
	}
	d, found := int32(0), p != nil
	if found {
		d = ids[0]
	} else if d, found = g.DomainIndex(name); !found {
		s.writeError(w, http.StatusNotFound, "domain %q not observed in the current window", name)
		return
	}
	ex, err := features.NewExtractor(g, s.cfg.Activity, s.cfg.Abuse, f2Window(m))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "extractor: %v", err)
		return
	}
	v := features.BorrowVector()
	defer features.ReturnVector(v)
	ex.VectorInto(d, v)
	resp := DomainResponse{
		Domain:                name,
		Day:                   g.Day(),
		GraphVersion:          version,
		Label:                 g.DomainLabel(d).String(),
		E2LD:                  g.DomainE2LD(d),
		QueryingMachines:      int(v[features.FTotalMachines]),
		InfectedFraction:      v[features.FInfectedFraction],
		UnknownFraction:       v[features.FUnknownFraction],
		ActiveDays:            int(v[features.FDomainActiveDays]),
		ConsecutiveDays:       int(v[features.FDomainStreak]),
		MalwareIPFraction:     v[features.FMalwareIPFraction],
		MalwarePrefixFraction: v[features.FMalwarePrefixFraction],
	}
	if live := s.cfg.Graphs.Version(); live > version {
		resp.LiveVersion = live
	}
	for _, ip := range g.DomainIPs(d) {
		resp.ResolvedIPs = append(resp.ResolvedIPs, ip.String())
	}
	for _, m := range g.MachinesOf(d) {
		if len(resp.Machines) == maxMachinesInResponse {
			break
		}
		resp.Machines = append(resp.Machines, g.MachineID(m))
	}
	// Score the domain when a detector is loaded and the domain is a
	// classification target (unknown label). The score is measured on the
	// pruned deployment graph, so a pruned-away domain has none.
	if m != nil && g.DomainLabel(d) == graph.LabelUnknown {
		var row ClassifyDetection
		var scored bool
		if p != nil {
			row, scored = p.row(d)
		} else {
			row, scored = s.scoreDomain(r.Context(), m, g, version, name)
		}
		resp.Pruned = !scored
		if scored {
			resp.Score, resp.Detected, resp.ScoreVersion = &row.Score, &row.Detected, row.ScoreVersion
		}
	}
	s.domainLat.ObserveDuration(time.Since(t0))
	s.writeJSON(w, http.StatusOK, resp)
}

// scoreDomain scores one unknown domain of the fresh snapshot g on demand,
// through the session the passes use. Not ok when the domain has no score
// (pruned away).
func (s *Server) scoreDomain(ctx context.Context, m *loadedModel, g *graph.Graph, version uint64, name string) (ClassifyDetection, bool) {
	dets, _, err := m.session.ClassifyDelta(core.ClassifyInput{
		Ctx:      ctx,
		Graph:    g,
		Activity: s.cfg.Activity,
		Abuse:    s.cfg.Abuse,
		Domains:  []string{name},
	})
	if err != nil || len(dets) != 1 {
		return ClassifyDetection{}, false
	}
	score := dets[0].Score
	return ClassifyDetection{Domain: name, Score: score, Detected: score >= m.det.Threshold(), ScoreVersion: version}, true
}

// TrackerEntry is one tracked domain in the GET /v1/tracker reply.
type TrackerEntry struct {
	Domain        string  `json:"domain"`
	FirstDetected int     `json:"firstDetected"`
	LastDetected  int     `json:"lastDetected"`
	DaysDetected  int     `json:"daysDetected"`
	PeakScore     float64 `json:"peakScore"`
	Machines      int     `json:"machines"`
}

// TrackerResponse is the GET /v1/tracker reply.
type TrackerResponse struct {
	Tracked int            `json:"tracked"`
	Entries []TrackerEntry `json:"entries"`
}

// handleTracker reads the cross-day detection tracker. ?minDays=N
// restricts the listing to domains detected on at least N distinct days
// (the persistent control infrastructure).
func (s *Server) handleTracker(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tracker == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no tracker configured")
		return
	}
	minDays := 0
	if v := r.URL.Query().Get("minDays"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, "bad minDays %q", v)
			return
		}
		minDays = n
	}
	resp := TrackerResponse{Tracked: s.cfg.Tracker.Len()}
	for _, e := range s.cfg.Tracker.Entries() {
		if e.DaysDetected < minDays {
			continue
		}
		resp.Entries = append(resp.Entries, TrackerEntry{
			Domain:        e.Domain,
			FirstDetected: e.FirstDetected,
			LastDetected:  e.LastDetected,
			DaysDetected:  e.DaysDetected,
			PeakScore:     e.PeakScore,
			Machines:      len(e.Machines),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// RunTrackerPass runs one classify-all pass and returns what it changed
// in the tracker — the daemon's periodic deployment loop ("what is new
// today, what recurs, what went dormant"). The context bounds the pass:
// daemon shutdown cancels an in-flight pass rather than waiting it out. A
// stale result (pass overran its deadline) reports an empty diff — the
// last-good detections were folded in by the pass that produced them.
func (s *Server) RunTrackerPass(ctx context.Context) (*tracker.DayDiff, error) {
	if s.cfg.Tracker == nil {
		return nil, errors.New("server: no tracker configured")
	}
	m := s.model()
	if m == nil {
		return nil, errors.New("server: no detector loaded")
	}
	ctx, span := s.cfg.Tracer.StartSpan(ctx, obs.StageTrackerPass)
	defer span.End()
	p, stale, err := s.classifyAll(ctx, m)
	if err != nil {
		span.SetAttr("err", err)
		return nil, err
	}
	if stale {
		span.SetAttr("stale", true)
		return &tracker.DayDiff{Day: p.graph.Day()}, nil
	}
	span.SetAttr("classified", len(p.rows))
	span.SetAttr("detected", p.detected)
	return p.diff, nil
}

// HealthResponse is the GET /healthz reply. Status is liveness and stays
// "ok" as long as the process answers; Health carries the overload state
// machine (healthy/degraded/overloaded) when one is configured, with the
// contributing signals and recent transitions for post-mortems.
type HealthResponse struct {
	Status         string              `json:"status"`
	Day            int                 `json:"day"`
	GraphVersion   uint64              `json:"graphVersion"`
	UptimeSeconds  float64             `json:"uptimeSeconds"`
	DetectorLoaded bool                `json:"detectorLoaded"`
	DetectorAgeSec float64             `json:"detectorAgeSeconds,omitempty"`
	Health         string              `json:"health,omitempty"`
	Signals        []health.Signal     `json:"signals,omitempty"`
	Transitions    []health.Transition `json:"transitions,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		Day:           s.cfg.Graphs.Day(),
		GraphVersion:  s.cfg.Graphs.Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if m := s.model(); m != nil {
		resp.DetectorLoaded = true
		resp.DetectorAgeSec = time.Since(m.loadedAt).Seconds()
	}
	if h := s.cfg.Health; h != nil {
		resp.Health = h.State().String()
		resp.Signals = h.Signals()
		resp.Transitions = h.History()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ReadyResponse is the GET /readyz reply.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Health string `json:"health"`
}

// handleReadyz is the load-balancer readiness probe: 200 while the
// daemon can take traffic (healthy or degraded — degraded still serves,
// from the last-good cache if need be), 503 once overloaded so upstream
// stops routing new work here until pressure drains.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.healthState()
	resp := ReadyResponse{Ready: st != health.Overloaded, Health: st.String()}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	}
	s.writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WritePrometheus(w)
}

// handleTraces dumps the flight recorder: the most recent and the
// slowest completed traces, newest/slowest first. Without a tracer the
// dump is empty but the endpoint still answers 200, so dashboards can
// probe it unconditionally. ?limit=N caps each ring's records; ?ring=
// recent|slowest keeps only that ring (the other comes back empty).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	dump := s.cfg.Tracer.Dump()
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		if n < len(dump.Recent) {
			dump.Recent = dump.Recent[:n]
		}
		if n < len(dump.Slowest) {
			dump.Slowest = dump.Slowest[:n]
		}
	}
	switch ring := r.URL.Query().Get("ring"); ring {
	case "":
	case "recent":
		dump.Slowest = []obs.TraceRecord{}
	case "slowest":
		dump.Recent = []obs.TraceRecord{}
	default:
		s.writeError(w, http.StatusBadRequest, "bad ring %q (want recent or slowest)", ring)
		return
	}
	s.writeJSON(w, http.StatusOK, dump)
}

// AuditResponse is the GET /v1/audit reply. Records come newest first.
type AuditResponse struct {
	// Total is how many records the in-memory query window holds (the
	// persisted JSONL trail can reach further back).
	Total   int               `json:"total"`
	Records []obs.AuditRecord `json:"records"`
}

// defaultAuditLimit caps an unbounded GET /v1/audit.
const defaultAuditLimit = 100

// handleAudit queries the detection audit trail. ?domain=X restricts to
// one domain; ?limit=N caps the reply (default 100, 0 keeps the default;
// the in-memory window bounds it anyway).
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Audit == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no audit trail configured")
		return
	}
	limit := defaultAuditLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	domain := r.URL.Query().Get("domain")
	if domain != "" {
		name, err := dnsutil.Normalize(domain)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad domain: %v", err)
			return
		}
		domain = name
	}
	recs := s.cfg.Audit.Query(limit, domain)
	if recs == nil {
		recs = []obs.AuditRecord{}
	}
	s.writeJSON(w, http.StatusOK, AuditResponse{Total: s.cfg.Audit.Len(), Records: recs})
}

// ReloadResponse is the POST /v1/reload reply.
type ReloadResponse struct {
	Reloaded  bool    `json:"reloaded"`
	Threshold float64 `json:"threshold"`
	Path      string  `json:"path"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Detector == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no detector configured")
		return
	}
	if err := s.cfg.Detector.Reload(); err != nil {
		s.reloadFails.Inc()
		s.writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.reloads.Inc()
	det, _ := s.cfg.Detector.Get()
	s.writeJSON(w, http.StatusOK, ReloadResponse{
		Reloaded:  true,
		Threshold: det.Threshold(),
		Path:      s.cfg.Detector.Path(),
	})
}

// ReloadForSignal is the SIGHUP entry point: it reloads the detector and
// records the outcome in the same metrics as POST /v1/reload.
func (s *Server) ReloadForSignal() error {
	if s.cfg.Detector == nil {
		return errors.New("server: no detector configured")
	}
	if err := s.cfg.Detector.Reload(); err != nil {
		s.reloadFails.Inc()
		return err
	}
	s.reloads.Inc()
	return nil
}

// f2Window is the F2 look-back that lookup responses and audit records
// extract features with: the serving detector's own, so the vector shown
// is the one it scored; the paper's 14 days while no model is loaded.
func f2Window(m *loadedModel) int {
	if m == nil {
		return core.DefaultConfig().ActivityWindow
	}
	return m.det.ActivityWindow()
}

// model returns the current detector and session, or nil when none is
// configured.
func (s *Server) model() *loadedModel {
	if s.cfg.Detector == nil {
		return nil
	}
	return s.cfg.Detector.cur.Load()
}

// healthState reads the daemon's aggregate health; without a tracker the
// server is considered healthy.
func (s *Server) healthState() health.State {
	if s.cfg.Health == nil {
		return health.Healthy
	}
	return s.cfg.Health.State()
}
