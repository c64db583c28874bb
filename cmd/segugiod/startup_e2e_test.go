package main

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/ingest"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/obs"
)

// requireStartupRecord finds newDaemon's one start-up record in log and
// checks that the whole start took at least as long as each of its
// phases.
func requireStartupRecord(t *testing.T, log string) {
	t.Helper()
	re := regexp.MustCompile(`msg="start-up complete".*component=daemon.* activity_s=(\S+) pdns_s=(\S+) recovery_s=(\S+) total_s=(\S+)`)
	m := re.FindStringSubmatch(log)
	if m == nil {
		t.Fatalf("no start-up record in the log:\n%s", log)
	}
	var secs [4]float64
	for i := range secs {
		v, err := strconv.ParseFloat(m[i+1], 64)
		if err != nil {
			t.Fatalf("start-up record %q: %v", m[0], err)
		}
		secs[i] = v
	}
	for i, phase := range []string{"activity_s", "pdns_s", "recovery_s"} {
		if secs[i] > secs[3] {
			t.Fatalf("start-up record %q: %s %v above total_s %v", m[0], phase, secs[i], secs[3])
		}
	}
}

// copyTree copies the files and directories under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStartupIntelBesideRecovery starts a daemon on a crashed 4-stripe
// state (checkpoint plus WAL tail) and a -data directory whose activity
// history names the same domains and days as the state: the history
// preload runs beside the recovery's replay marks, and the daemon's
// activity log must equal the serial order — history first, recovery
// second.
func TestStartupIntelBesideRecovery(t *testing.T) {
	state, dataDir := t.TempDir(), t.TempDir()
	writeIntel(t, dataDir)
	suffixes := dnsutil.DefaultSuffixList()
	evs := genEvents()

	// The crashed state: half the day checkpointed, the rest only in the
	// WAL stripes.
	applied := metrics.NewRegistry().NewCounter("applied", "", "")
	cfg := ingest.Config{Network: "boot", StartDay: e2eDay, Workers: 4, Metrics: &ingest.Metrics{EventsIngested: applied}}
	in, _, err := ingest.OpenDurable(cfg, ingest.DurableConfig{Dir: state, SyncEvery: 1, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Shutdown()
	feedDay := func(part []logio.Event) {
		var text strings.Builder
		for _, e := range part {
			logio.WriteEvent(&text, e)
		}
		want := applied.Value() + int64(len(part))
		if err := in.Consume(strings.NewReader(text.String())); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); applied.Value() != want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("applied %d of %d events", applied.Value(), want)
			}
		}
	}
	feedDay(evs[:len(evs)/2])
	if err := in.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedDay(evs[len(evs)/2:])
	// The crashed ingester still holds state; each recovery gets a copy.
	daemonState, serialState := t.TempDir(), t.TempDir()
	copyTree(t, state, daemonState)
	copyTree(t, state, serialState)

	// History: the state's names on earlier days and on the state's own
	// day, out of order, plus names the state never saw.
	names := []string{"c1.evil.net", "www.good3.com", "unk0.gray.org", "old.gone.example", "c7.evil.net"}
	f, err := os.Create(filepath.Join(dataDir, "activity.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for _, day := range []int{e2eDay, e2eDay - 3, e2eDay - 1, e2eDay - 2, e2eDay} {
		for i, name := range names {
			if (i+day)%3 != 0 {
				logio.WriteActivityMark(w, day, name)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	logBuf := &logBuffer{}
	logger, err := obs.NewLogger(logBuf, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen:       "127.0.0.1:0",
		events:       "-",
		network:      "boot",
		startDay:     e2eDay,
		workers:      4,
		queue:        1024,
		keepDays:     30,
		stateDir:     daemonState,
		dataDir:      dataDir,
		ckptInterval: time.Hour,
		walSyncEvery: 1,
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer d.httpLn.Close()
	defer d.ing.Shutdown()
	requireStartupRecord(t, logBuf.String())

	want := activity.NewLog()
	hf, err := os.Open(filepath.Join(dataDir, "activity.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	if err := logio.ReadActivity(hf, want, suffixes); err != nil {
		t.Fatal(err)
	}
	cfg.Activity, cfg.Metrics = want, nil
	ref, info, err := ingest.OpenDurable(cfg, ingest.DurableConfig{Dir: serialState, SyncEvery: 1, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown()
	if !info.CheckpointLoaded || info.ReplayedEvents == 0 {
		t.Fatalf("reference recovery = %+v, want a checkpoint and a WAL tail", info)
	}

	for _, e := range evs {
		names = append(names, e.Domain)
	}
	if got, want := d.act.Domains(), want.Domains(); got != want {
		t.Fatalf("activity log tracks %d domains, serial reference %d", got, want)
	}
	for _, name := range names {
		e2ld := suffixes.E2LD(name)
		for day := e2eDay - 5; day <= e2eDay+1; day++ {
			if g, w := d.act.DomainActiveDays(name, day, day), want.DomainActiveDays(name, day, day); g != w {
				t.Fatalf("%s active on day %d: %d, serial reference %d", name, day, g, w)
			}
			if g, w := d.act.E2LDActiveDays(e2ld, day, day), want.E2LDActiveDays(e2ld, day, day); g != w {
				t.Fatalf("e2LD %s active on day %d: %d, serial reference %d", e2ld, day, g, w)
			}
		}
	}
	if d.act.DomainActiveDays("old.gone.example", 0, e2eDay) == 0 || d.act.DomainActiveDays("c1.evil.net", e2eDay, e2eDay) != 1 {
		t.Fatal("the comparison is vacuous: history and recovery marks are missing")
	}
}
