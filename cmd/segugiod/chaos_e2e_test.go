package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"segugio/internal/faultinject"
	"segugio/internal/ingest"
	"segugio/internal/logio"
	"segugio/internal/obs"
	"segugio/internal/wal"
)

// chaosHealth is the slice of /healthz the chaos assertions read.
type chaosHealth struct {
	Health  string `json:"health"`
	Signals []struct {
		Name  string `json:"name"`
		State string `json:"state"`
	} `json:"signals"`
}

func getHealth(t *testing.T, base string) chaosHealth {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h chaosHealth
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz: bad JSON %q: %v", body, err)
	}
	return h
}

// pollHealth scrapes /healthz until the aggregate state matches.
func pollHealth(t *testing.T, base, want string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		h := getHealth(t, base)
		if h.Health == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("health stuck at %q (signals %+v), want %q", h.Health, h.Signals, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// floodEvents builds n same-day query events across a small domain pool;
// machine IDs are unique when uniqueMachines is set (so applied events
// are countable as graph machines).
func floodEvents(n int, uniqueMachines bool) []logio.Event {
	evs := make([]logio.Event, 0, n)
	for i := 0; i < n; i++ {
		machine := fmt.Sprintf("f%03d", i%311)
		if uniqueMachines {
			machine = fmt.Sprintf("k%06d", i)
		}
		evs = append(evs, logio.Event{
			Kind: logio.EventQuery, Day: e2eDay,
			Machine: machine,
			Domain:  fmt.Sprintf("d%02d.flood.net", i%97),
		})
	}
	return evs
}

// TestDaemonChaosOverloadRecovery is the chaos-harness acceptance e2e:
// one in-process daemon is driven through healthy -> degraded (stalled
// classify passes, slow fsync) -> overloaded (flooded ingest shards) ->
// recovery, with fault injectors flipped at runtime. Throughout, the API
// must keep answering (stale-marked results from the last-good pass,
// 429/503 with Retry-After for shed load, probes always reachable),
// shedding must happen only under the explicit drop-oldest policy with
// exact accounting, and the health transitions must land in the audit
// trail.
func TestDaemonChaosOverloadRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	dataDir := t.TempDir()
	bl, wl := writeIntel(t, dataDir)
	model := trainModel(t, dataDir, bl, wl)

	disk := &faultinject.Disk{}
	passGate := &faultinject.Gate{}
	logBuf := &logBuffer{}
	logger, err := obs.NewLogger(logBuf, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:   "127.0.0.1:0",
		events:   "tcp://127.0.0.1:0",
		model:    model,
		dataDir:  dataDir,
		network:  "chaos",
		startDay: e2eDay,
		workers:  2,
		// Shards sized so the baseline stream can never overflow them
		// (2 shards x 1024 > the ~1400 baseline events) while the 20k
		// flood against fsync-stalled workers must.
		queue:        1024,
		keepDays:     30,
		stateDir:     t.TempDir(),
		ckptInterval: time.Hour, // no background checkpoints mid-chaos
		walSyncEvery: 1,
		passDeadline: 150 * time.Millisecond,
		shedPolicy:   ingest.ShedDropOldest,
		maxInflight:  1,
		passHook:     func(ctx context.Context) { passGate.Wait(ctx) },
		walHooks:     &wal.Hooks{BeforeWrite: disk.BeforeWrite, BeforeSync: disk.BeforeSync},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()
	base := "http://" + d.httpLn.Addr().String()
	eventsAddr := d.eventsLn.Addr().String()

	classify := func() (int, bool) {
		t.Helper()
		resp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var out struct {
			Stale bool `json:"stale"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("classify: bad JSON %q: %v", body, err)
			}
		}
		return resp.StatusCode, out.Stale
	}

	// ---- Phase 1: healthy baseline. ----
	baseline := genEvents()
	streamed := len(baseline)
	streamEvents(t, eventsAddr, baseline)
	pollMetric(t, base, "segugiod_ingest_events_total", func(v float64) bool { return v == float64(streamed) })
	if code, stale := classify(); code != http.StatusOK || stale {
		t.Fatalf("baseline classify: code=%d stale=%v", code, stale)
	}
	pollHealth(t, base, "healthy")
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline readyz: %d", resp.StatusCode)
	}

	// ---- Phase 2: stalled classify passes -> stale serves, admission
	// rejections, degraded. ----
	passGate.Arm()

	// Burst concurrent classifies at the single in-flight slot: at most
	// one is admitted at a time (and stalls on the gate for the full
	// deadline), so the rest of each burst must be turned away with 429.
	saw429 := false
	for round := 0; round < 5 && !saw429; round++ {
		codes := make(chan int, 8)
		var burst sync.WaitGroup
		for i := 0; i < cap(codes); i++ {
			burst.Add(1)
			go func() {
				defer burst.Done()
				resp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader("{}"))
				if err != nil {
					codes <- 0
					return
				}
				retry := resp.Header.Get("Retry-After")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests && retry == "" {
					codes <- -1
					return
				}
				codes <- resp.StatusCode
			}()
		}
		burst.Wait()
		close(codes)
		for c := range codes {
			if c == -1 {
				t.Fatal("429 without Retry-After")
			}
			if c == http.StatusTooManyRequests {
				saw429 = true
			}
		}
	}
	if !saw429 {
		t.Fatal("admission control never rejected concurrent classify load")
	}

	// Sequential overruns: every one is served stale from the last-good
	// pass, and the watchdog escalates to degraded.
	for i := 0; i < 3; i++ {
		code, stale := classify()
		if code != http.StatusOK || !stale {
			t.Fatalf("stalled classify %d: code=%d stale=%v, want stale 200", i, code, stale)
		}
	}
	pollMetric(t, base, "segugiod_pass_deadline_exceeded_total", func(v float64) bool { return v >= 3 })
	pollHealth(t, base, "degraded")
	h := getHealth(t, base)
	found := false
	for _, sig := range h.Signals {
		if sig.Name == "classify_pass" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded without a classify_pass signal: %+v", h.Signals)
	}

	// Release: the next completed pass resets the watchdog.
	passGate.Release()
	if code, stale := classify(); code != http.StatusOK || stale {
		t.Fatalf("post-release classify: code=%d stale=%v", code, stale)
	}
	pollHealth(t, base, "healthy")

	// ---- Phase 3: slow fsync + event flood -> overloaded, policy
	// shedding with exact accounting, API still answering. ----
	disk.SlowSyncs(300 * time.Millisecond) // > slow-append threshold: stalls workers and flags the WAL
	flood := floodEvents(20000, false)
	streamed += len(flood)
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		streamEvents(t, eventsAddr, flood)
	}()
	pollMetric(t, base, `segugiod_ingest_shed_total{reason="drop-oldest"}`,
		func(v float64) bool { return v >= 1 })
	pollHealth(t, base, "overloaded")
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded readyz: %d, want 503", resp.StatusCode)
	}
	// The API never wedges: classify under full overload still answers
	// 200 (fresh or stale-marked, never hanging, never 5xx).
	if code, _ := classify(); code != http.StatusOK {
		t.Fatalf("classify under overload: %d, want 200", code)
	}
	<-floodDone

	// ---- Phase 4: faults off -> drain, exact shed accounting, recovery. ----
	disk.SlowSyncs(0)
	// Every streamed event is accounted for: applied (acknowledged) or
	// shed under the explicit policy. Nothing dropped, nothing lost.
	pollMetric(t, base, "segugiod_ingest_events_total", func(ingested float64) bool {
		shed, _ := metricValue(t, base, `segugiod_ingest_shed_total{reason="drop-oldest"}`)
		return ingested+shed == float64(streamed)
	})
	if v, _ := metricValue(t, base, "segugiod_ingest_dropped_total"); v != 0 {
		t.Fatalf("legacy drop counter = %v under drop-oldest policy, want 0", v)
	}
	// One completed pass clears the watchdog; the TTL signals decay.
	if code, _ := classify(); code != http.StatusOK {
		t.Fatalf("recovery classify: %d", code)
	}
	pollHealth(t, base, "healthy")
	if v, ok := metricValue(t, base, "segugiod_health_state"); !ok || v != 0 {
		t.Fatalf("health_state gauge = %v (present=%v), want 0", v, ok)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered readyz: %d", resp.StatusCode)
	}

	// ---- The whole incident is audited. ----
	resp, err = http.Get(base + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var audit struct {
		Records []obs.AuditRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &audit); err != nil {
		t.Fatalf("audit: bad JSON %q: %v", body, err)
	}
	var toOverloaded, backToHealthy bool
	for _, rec := range audit.Records {
		if rec.Reason != obs.ReasonHealthTransition {
			continue
		}
		if strings.Contains(rec.Note, "-> overloaded") {
			toOverloaded = true
		}
		if strings.Contains(rec.Note, "-> healthy") {
			backToHealthy = true
		}
	}
	if !toOverloaded || !backToHealthy {
		t.Fatalf("audit trail lacks the incident (overloaded=%v healthy=%v):\n%s",
			toOverloaded, backToHealthy, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; log:\n%s", logBuf.String())
	}
}

// TestDaemonChaosKillUnderOverload SIGKILLs a daemon mid-flood under the
// drop-oldest shed policy and restarts it on the same state directory:
// whatever the shed policy discarded was never acknowledged, so every
// event the ingest counter reported before the kill must come back from
// the WAL. Each flood event carries a unique machine ID, making "applied
// events" countable as recovered graph machines.
func TestDaemonChaosKillUnderOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	state := t.TempDir()
	args := []string{
		"-listen", "127.0.0.1:0",
		"-events", "tcp://127.0.0.1:0",
		"-state", state,
		"-network", "chaos",
		"-start-day", fmt.Sprint(e2eDay),
		"-workers", "2",
		"-queue", "64",
		"-wal-sync-every", "1",
		"-checkpoint-interval", "1h",
		"-shed-policy", "drop-oldest",
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SEGUGIOD_CRASH_HELPER=1",
		"SEGUGIOD_CRASH_ARGS="+strings.Join(args, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var logMu sync.Mutex
	var helperLog strings.Builder
	httpRe := regexp.MustCompile(`msg="HTTP API listening".* addr=(127\.0\.0\.1:\d+)`)
	eventsRe := regexp.MustCompile(`msg="event listener started".* addr=tcp://(127\.0\.0\.1:\d+)`)
	addrCh := make(chan [2]string, 1)
	go func() {
		var httpAddr, eventsAddr string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			helperLog.WriteString(line + "\n")
			logMu.Unlock()
			if m := httpRe.FindStringSubmatch(line); m != nil {
				httpAddr = m[1]
			}
			if m := eventsRe.FindStringSubmatch(line); m != nil {
				eventsAddr = m[1]
			}
			if httpAddr != "" && eventsAddr != "" {
				select {
				case addrCh <- [2]string{httpAddr, eventsAddr}:
				default:
				}
			}
		}
	}()
	var httpAddr, eventsAddr string
	select {
	case addrs := <-addrCh:
		httpAddr, eventsAddr = addrs[0], addrs[1]
	case <-time.After(20 * time.Second):
		logMu.Lock()
		defer logMu.Unlock()
		t.Fatalf("helper did not report its addresses; log:\n%s", helperLog.String())
	}
	base := "http://" + httpAddr

	// One burst of unique-machine events against 64-slot shards. Some may
	// be shed (unacknowledged, allowed); everything counted as ingested is
	// WAL-synced before the counter moves (-wal-sync-every=1).
	flood := floodEvents(30000, true)
	streamEvents(t, eventsAddr, flood)
	pollMetric(t, base, "segugiod_ingest_events_total", func(v float64) bool { return v >= 1000 })
	ackedBeforeKill, _ := metricValue(t, base, "segugiod_ingest_events_total")

	// Unclean death mid-drain.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same state: every acknowledged event must be back.
	logger, err := obs.NewLogger(io.Discard, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:       "127.0.0.1:0",
		events:       "tcp://127.0.0.1:0",
		network:      "chaos",
		startDay:     e2eDay,
		workers:      2,
		queue:        16384,
		keepDays:     30,
		stateDir:     state,
		ckptInterval: time.Hour,
		walSyncEvery: 1,
	}, logger)
	if err != nil {
		t.Fatalf("restart on killed state: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()
	base2 := "http://" + d.httpLn.Addr().String()

	// Unique machines make the acked-event floor directly observable.
	pollMetric(t, base2, "segugiod_graph_machines", func(v float64) bool {
		return v >= ackedBeforeKill
	})

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recovered daemon exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("recovered daemon did not shut down")
	}
}

// TestDaemonChaosFreshnessSLOBurn drives the watermark -> tsdb -> SLO
// pipeline through a full incident: graph apply is wedged while the
// event stream advances a day, the freshness objective's fast and slow
// windows both burn past threshold, the planted health signal flips
// /readyz to 503 and lands in the audit trail, and releasing the stall
// resolves the objective and recovers the daemon.
func TestDaemonChaosFreshnessSLOBurn(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	sloPath := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(sloPath, []byte(`{
		"interval": "50ms",
		"objectives": [{
			"name": "graph_freshness",
			"type": "freshness",
			"metric": "segugiod_watermark_lag_seconds",
			"labels": "{stage=\"graph_apply\",source=\"stream\"}",
			"target": 0.25,
			"budget": 0.05,
			"fastWindow": "500ms",
			"slowWindow": "1s",
			"severity": "overloaded"
		}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	applyGate := &faultinject.Gate{}
	defer applyGate.Release() // never leave shutdown wedged
	logBuf := &logBuffer{}
	logger, err := obs.NewLogger(logBuf, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:        "127.0.0.1:0",
		events:        "tcp://127.0.0.1:0",
		network:       "chaos",
		startDay:      e2eDay,
		workers:       2,
		queue:         1024,
		keepDays:      30,
		statsInterval: 25 * time.Millisecond,
		sloConfig:     sloPath,
		applyHook:     func() { applyGate.Wait(context.Background()) },
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()
	base := "http://" + d.httpLn.Addr().String()
	eventsAddr := d.eventsLn.Addr().String()

	// ---- Phase 1: healthy baseline on day 42. ----
	baseline := floodEvents(200, false)
	streamEvents(t, eventsAddr, baseline)
	pollMetric(t, base, "segugiod_ingest_events_total", func(v float64) bool { return v == 200 })
	pollHealth(t, base, "healthy")
	if v, ok := metricValue(t, base, `segugiod_slo_firing{objective="graph_freshness"}`); !ok || v != 0 {
		t.Fatalf("baseline slo_firing = %v (present=%v), want 0", v, ok)
	}

	// ---- Phase 2: wedge graph apply, advance the event-day frontier. ----
	applyGate.Arm()
	next := make([]logio.Event, 0, 64)
	for i := 0; i < 64; i++ {
		next = append(next, logio.Event{
			Kind: logio.EventQuery, Day: e2eDay + 1,
			Machine: fmt.Sprintf("s%03d", i), Domain: "late.flood.net",
		})
	}
	streamEvents(t, eventsAddr, next)

	// The stalled stage's lag exceeds the 0.25s target, both burn windows
	// fill with bad samples, and the objective fires at severity
	// overloaded: readyz flips, the gauge reports the firing objective.
	pollHealth(t, base, "overloaded")
	h := getHealth(t, base)
	foundSignal := false
	for _, sig := range h.Signals {
		if sig.Name == "slo_graph_freshness" && sig.State == "overloaded" {
			foundSignal = true
		}
	}
	if !foundSignal {
		t.Fatalf("no slo_graph_freshness signal while burning: %+v", h.Signals)
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("burning readyz: %d, want 503", resp.StatusCode)
	}
	pollMetric(t, base, `segugiod_slo_firing{objective="graph_freshness"}`,
		func(v float64) bool { return v == 1 })
	if v, ok := metricValue(t, base, `segugiod_slo_burn_rate{objective="graph_freshness",window="fast"}`); !ok || v < 1 {
		t.Fatalf("fast burn = %v (present=%v), want >= 1", v, ok)
	}

	// ---- Phase 3: release, drain, resolve, recover. ----
	applyGate.Release()
	pollMetric(t, base, "segugiod_ingest_events_total", func(v float64) bool { return v == 264 })
	pollHealth(t, base, "healthy")
	pollMetric(t, base, `segugiod_slo_firing{objective="graph_freshness"}`,
		func(v float64) bool { return v == 0 })
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered readyz: %d", resp.StatusCode)
	}

	// ---- Both edges of the incident are audited. ----
	resp, err = http.Get(base + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var audit struct {
		Records []obs.AuditRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &audit); err != nil {
		t.Fatalf("audit: bad JSON %q: %v", body, err)
	}
	var fired, resolved bool
	for _, rec := range audit.Records {
		if rec.Reason != obs.ReasonSLOBreach {
			continue
		}
		if strings.Contains(rec.Note, "graph_freshness firing") {
			fired = true
		}
		if strings.Contains(rec.Note, "graph_freshness resolved") {
			resolved = true
		}
	}
	if !fired || !resolved {
		t.Fatalf("audit trail lacks the SLO incident (fired=%v resolved=%v):\n%s",
			fired, resolved, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; log:\n%s", logBuf.String())
	}
}
