package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"segugio/internal/logio"
	"segugio/internal/obs"
)

// TestCrashHelperProcess is not a test: it is the daemon process the
// crash-recovery e2e SIGKILLs. The parent re-execs the test binary with
// SEGUGIOD_CRASH_HELPER=1 and the daemon flags in the environment.
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv("SEGUGIOD_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestDaemonCrashRecovery")
	}
	args := strings.Split(os.Getenv("SEGUGIOD_CRASH_ARGS"), "\n")
	if err := run(context.Background(), args, nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// streamEvents writes events over one TCP connection to addr.
func streamEvents(t *testing.T, addr string, evs []logio.Event) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for _, e := range evs {
		if err := logio.WriteEvent(w, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}

// pollMetric scrapes base/metrics until cond holds for the named metric.
func pollMetric(t *testing.T, base, name string, cond func(v float64) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if v, ok := metricValue(t, base, name); ok && cond(v) {
			return
		}
		if time.Now().After(deadline) {
			v, _ := metricValue(t, base, name)
			t.Fatalf("metric %s stuck at %v", name, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonCrashRecovery is the acceptance e2e for the durability
// layer: a daemon dies uncleanly (SIGKILL) mid-stream after
// acknowledging events, and a restart on the same -state directory must
// rebuild the graph from the checkpoint plus the WAL tail with no
// acknowledged event lost.
func TestDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	state := t.TempDir()
	dataDir := t.TempDir()
	bl, wl := writeIntel(t, dataDir)
	model := trainModel(t, dataDir, bl, wl)

	// Phase 1: the victim daemon runs in a separate process so it can be
	// SIGKILLed — a real unclean death, not a polite shutdown. The model
	// and the periodic tracker pass make it write detection audit records,
	// which must survive the kill like the graph does.
	args := []string{
		"-listen", "127.0.0.1:0",
		"-events", "tcp://127.0.0.1:0",
		"-state", state,
		"-network", "crash",
		"-start-day", fmt.Sprint(e2eDay),
		"-queue", "16384",
		"-wal-sync-every", "1",
		"-checkpoint-interval", "300ms",
		"-data", dataDir,
		"-model", model,
		"-classify-every", "200ms",
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

	// The helper logs its bound addresses; scrape them off its stderr.
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

	evs := genEvents()
	half := len(evs) / 2

	// First half, then wait for a checkpoint to cover (some prefix of) it.
	streamEvents(t, eventsAddr, evs[:half])
	pollMetric(t, base, "segugiod_ingest_events_total", func(v float64) bool { return v == float64(half) })
	pollMetric(t, base, "segugiod_checkpoints_total", func(v float64) bool { return v >= 1 })

	// Second half. Once the ingest counter reaches the full count, every
	// event is applied AND WAL-synced (-wal-sync-every 1 orders the sync
	// before the counter moves) — i.e. acknowledged durable.
	streamEvents(t, eventsAddr, evs[half:])
	pollMetric(t, base, "segugiod_ingest_events_total", func(v float64) bool { return v == float64(len(evs)) })
	if v, _ := metricValue(t, base, "segugiod_ingest_dropped_total"); v != 0 {
		t.Fatalf("helper dropped %v events; the acknowledged-event invariant needs 0", v)
	}

	// Wait for the periodic tracker pass to flag and audit detections.
	// The audit metric is read under the same lock Append fsyncs under,
	// so any value it reports counts records already durable on disk.
	pollMetric(t, base, "segugiod_audit_records_total", func(v float64) bool { return v >= 1 })
	auditedBeforeKill, _ := metricValue(t, base, "segugiod_audit_records_total")

	// Unclean death.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reaps; exit status is "signal: killed", not interesting

	// Phase 2: restart on the same state directory, in-process this time
	// so the recovered daemon's internals are inspectable. The victim ran
	// with the default 4 shards; restarting with -workers 2 forces
	// recovery to rehash the per-shard checkpoints and WAL stripes into
	// the new partition — the flag may change across any restart, crashes
	// included.
	logBuf := &logBuffer{}
	logger, err := obs.NewLogger(logBuf, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:       "127.0.0.1:0",
		events:       "tcp://127.0.0.1:0",
		network:      "crash",
		startDay:     e2eDay,
		workers:      2,
		queue:        16384,
		keepDays:     30,
		stateDir:     state,
		dataDir:      dataDir,
		ckptInterval: time.Hour, // only the shutdown checkpoint
		walSyncEvery: 1,
	}, logger)
	if err != nil {
		t.Fatalf("restart on crashed state: %v", err)
	}
	// Recovery runs inside newDaemon, so its log lines are already in
	// logBuf; snapshot them before d.run starts writing concurrently.
	recoveryLog := logBuf.String()
	requireStartupRecord(t, recoveryLog)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()
	base2 := "http://" + d.httpLn.Addr().String()

	// Recovery must have come from a checkpoint (one was scraped as
	// durable before the kill) plus the WAL tail, and must have rehashed
	// the victim's 4-shard state into the requested 2 shards.
	if !strings.Contains(recoveryLog, "checkpoint") {
		t.Fatalf("recovery did not report a checkpoint:\n%s", recoveryLog)
	}
	if !strings.Contains(recoveryLog, "rehashed to 2 shards") {
		t.Fatalf("recovery did not rehash across the shard-count change:\n%s", recoveryLog)
	}
	// No acknowledged event lost: the full day's graph is back. genEvents
	// yields 34 domains across 37 machines.
	pollMetric(t, base2, "segugiod_graph_domains", func(v float64) bool { return v == 34 })
	pollMetric(t, base2, "segugiod_graph_machines", func(v float64) bool { return v == 37 })
	resp, err := http.Get(base2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), fmt.Sprintf(`"day": %d`, e2eDay)) {
		t.Fatalf("healthz after recovery: %s", body)
	}

	// No acknowledged audit record lost either: the restarted daemon
	// reloads the audit trail from state/audit, and /v1/audit serves at
	// least every record the victim acknowledged before the kill.
	resp, err = http.Get(base2 + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var audit struct {
		Total   int               `json:"total"`
		Records []obs.AuditRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &audit); err != nil {
		t.Fatalf("audit after recovery: bad JSON %q: %v", body, err)
	}
	if audit.Total < int(auditedBeforeKill) {
		t.Fatalf("audit records after recovery = %d, victim acknowledged %v before SIGKILL",
			audit.Total, auditedBeforeKill)
	}
	if len(audit.Records) == 0 || audit.Records[0].Reason != obs.ReasonNewDetection {
		t.Fatalf("recovered audit records = %s", body)
	}

	// The recovered daemon keeps ingesting durably: a fresh machine shows
	// up in the graph (and in the WAL, though this test stops here).
	streamEvents(t, d.eventsLn.Addr().String(), []logio.Event{
		{Kind: logio.EventQuery, Day: e2eDay, Machine: "post-crash", Domain: "alive.example.com"},
	})
	pollMetric(t, base2, "segugiod_graph_machines", func(v float64) bool { return v == 38 })

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recovered daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("recovered daemon did not shut down; log:\n%s", logBuf.String())
	}

	// A graceful stop leaves the flight-recorder snapshot behind.
	snap, err := os.ReadFile(filepath.Join(state, "traces.json"))
	if err != nil {
		t.Fatalf("no trace snapshot after graceful shutdown: %v", err)
	}
	var dump obs.Dump
	if err := json.Unmarshal(snap, &dump); err != nil {
		t.Fatalf("trace snapshot is not a Dump: %v", err)
	}
	if len(dump.Recent) == 0 {
		t.Fatal("trace snapshot has no traces")
	}
}
