package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"segugio/internal/faultinject"
	"segugio/internal/obs"
	"segugio/internal/tsdb"
)

// runSnapshotDaemon starts an in-process daemon on state, lets the stats
// store self-scrape at least once, and shuts it down cleanly.
func runSnapshotDaemon(t *testing.T, state string) {
	t.Helper()
	logBuf := &logBuffer{}
	logger, err := obs.NewLogger(logBuf, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:        "127.0.0.1:0",
		events:        "tcp://127.0.0.1:0",
		network:       "snap",
		startDay:      e2eDay,
		workers:       2,
		queue:         1024,
		keepDays:      30,
		stateDir:      state,
		ckptInterval:  time.Hour,
		walSyncEvery:  1,
		statsInterval: 20 * time.Millisecond,
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()
	// Wait for the store to hold at least one self-scrape.
	base := "http://" + d.httpLn.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var disc struct {
			Series []tsdb.SeriesInfo `json:"series"`
		}
		if err := getJSONURL(base+"/v1/stats/query", &disc); err == nil && len(disc.Series) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats store never scraped; log:\n%s", logBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v\n%s", err, logBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not shut down; log:\n%s", logBuf.String())
	}
}

// TestShutdownSnapshotsSurviveTornWrites verifies the post-mortem
// snapshots: a clean stop writes state/traces.json and state/stats.json
// as valid JSON, and a torn snapshot left by a crash is replaced
// wholesale on the next clean stop rather than appended to or half
// rewritten.
func TestShutdownSnapshotsSurviveTornWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	state := t.TempDir()
	runSnapshotDaemon(t, state)

	statsPath := filepath.Join(state, "stats.json")
	tracesPath := filepath.Join(state, "traces.json")
	var dump tsdb.Snapshot
	decodeJSONFile(t, statsPath, &dump)
	if len(dump.Series) == 0 {
		t.Fatal("stats.json holds no series")
	}
	var traces obs.Dump
	decodeJSONFile(t, tracesPath, &traces)

	// Tear both snapshots mid-record, as a crash during a plain
	// (non-atomic) rewrite would.
	for _, p := range []string{statsPath, tracesPath} {
		if err := faultinject.TruncateTail(p, 25); err != nil {
			t.Fatal(err)
		}
		var junk any
		if err := json.Unmarshal(readFileT(t, p), &junk); err == nil {
			t.Fatalf("%s still parses after truncation; torn fixture is wrong", p)
		}
	}

	// The next daemon run must not trip over the torn files, and its
	// clean stop must leave intact replacements.
	runSnapshotDaemon(t, state)
	decodeJSONFile(t, statsPath, &dump)
	if len(dump.Series) == 0 {
		t.Fatal("stats.json empty after rewrite over torn file")
	}
	decodeJSONFile(t, tracesPath, &traces)

	// No temp droppings from the atomic writes.
	entries, err := os.ReadDir(state)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left in state dir: %s", e.Name())
		}
	}
}

// TestWriteJSONSnapshotFailureKeepsOldFile pins the atomicity contract
// at the helper level: an encode failure must leave the previous
// snapshot byte-for-byte intact.
func TestWriteJSONSnapshotFailureKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	if err := writeJSONSnapshot(path, map[string]int{"ok": 1}); err != nil {
		t.Fatal(err)
	}
	before := readFileT(t, path)

	// NaN is not representable in JSON, so the encoder fails after the
	// writer may already have consumed partial output.
	if err := writeJSONSnapshot(path, map[string]float64{"bad": math.NaN()}); err == nil {
		t.Fatal("encoding NaN must fail")
	}
	if after := readFileT(t, path); string(after) != string(before) {
		t.Fatalf("failed snapshot altered the file:\nbefore: %s\nafter:  %s", before, after)
	}
}

func getJSONURL(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func decodeJSONFile(t *testing.T, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(readFileT(t, path), v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
