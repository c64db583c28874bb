package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/faultinject"
	"segugio/internal/graph"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/wal"
)

func newDurableMetrics() *DurableMetrics {
	r := metrics.NewRegistry()
	return &DurableMetrics{
		WAL: wal.Metrics{
			Appends:     r.NewCounter("wal_appends", "", ""),
			Syncs:       r.NewCounter("wal_syncs", "", ""),
			TornRecords: r.NewCounter("wal_torn", "", ""),
			Segments:    r.NewGauge("wal_segments", "", ""),
		},
		ReplayedEvents:      r.NewCounter("replayed", "", ""),
		ReplayErrors:        r.NewCounter("replay_errors", "", ""),
		CheckpointFallbacks: r.NewCounter("ckpt_fallbacks", "", ""),
		Checkpoints:         r.NewCounter("ckpts", "", ""),
		CheckpointFailures:  r.NewCounter("ckpt_failures", "", ""),
		LastCheckpointUnix:  r.NewGauge("ckpt_unix", "", ""),
	}
}

// durableCfg builds a durable ingester config pair with fast, test-sized
// knobs: every WAL record synced immediately, checkpoints only on
// demand (interval far in the future). A single shard keeps the
// on-disk layout deterministic for the fault-injection tests (which
// corrupt specific files); the multi-shard layout has its own tests.
func durableCfg(dir string, m *Metrics, dm *DurableMetrics) (Config, DurableConfig) {
	return Config{Network: "net", StartDay: 5, Workers: 1, Metrics: m},
		DurableConfig{
			Dir:             dir,
			SyncEvery:       1,
			CheckpointEvery: time.Hour,
			Metrics:         dm,
		}
}

// openShards opens dir durably (durableCfg knobs) at the given shard
// count.
func openShards(t *testing.T, dir string, workers int) (*Ingester, *Metrics, *RecoveryInfo) {
	t.Helper()
	m, _ := newMetrics()
	cfg, dc := durableCfg(dir, m, newDurableMetrics())
	cfg.Workers = workers
	in, info, err := OpenDurable(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	return in, m, info
}

// Stripe 0's file locations in the first-generation layout.
func shard0WALSeg(dir string) string {
	return filepath.Join(dir, genDirName(1), shardWALDir(0), "wal-00000001.seg")
}

func shard0WALGlob(dir string) string {
	return filepath.Join(dir, genDirName(1), shardWALDir(0), "wal-*.seg")
}

// The first generation's checkpoint pair.
func genCheckpoint(dir string) string {
	return filepath.Join(dir, genDirName(1), checkpointFile)
}

func genCheckpointPrev(dir string) string {
	return filepath.Join(dir, genDirName(1), checkpointPrevFile)
}

func feed(t *testing.T, in *Ingester, m *Metrics, events []logio.Event) {
	t.Helper()
	before := m.EventsIngested.Value()
	if err := in.Consume(strings.NewReader(stream(t, events))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "events applied", func() bool {
		return m.EventsIngested.Value() == before+int64(len(events))
	})
}

func genDurableEvents(day, n int) []logio.Event {
	var evs []logio.Event
	for i := 0; i < n; i++ {
		evs = append(evs, logio.Event{
			Kind: logio.EventQuery, Day: day,
			Machine: fmt.Sprintf("m%03d", i%37),
			Domain:  fmt.Sprintf("h%d.zone%d.net", i%29, i%11),
		})
	}
	return evs
}

func graphShape(g *graph.Graph) [3]int {
	return [3]int{g.NumMachines(), g.NumDomains(), g.NumEdges()}
}

// TestDurableRecoveryFromWALOnly kills an ingester that never
// checkpointed (simulated by skipping Shutdown's checkpoint via a fresh
// OpenDurable on the same directory): every applied event must come
// back from the WAL alone.
func TestDurableRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	in, m, info := openShards(t, dir, 1)
	if info.CheckpointLoaded || info.ReplayedEvents != 0 {
		t.Fatalf("fresh start info = %+v", info)
	}
	evs := genDurableEvents(5, 1200)
	feed(t, in, m, evs)
	want, wantVersion := in.Snapshot()
	// Unclean death: no Shutdown, no checkpoint. SyncEvery=1 means every
	// applied record is already durable.

	in2, _, info2 := openShards(t, dir, 1)
	defer in2.Shutdown()
	if info2.CheckpointLoaded {
		t.Fatalf("no checkpoint was written, info = %+v", info2)
	}
	if info2.ReplayedEvents != len(evs) {
		t.Fatalf("replayed %d events, want %d", info2.ReplayedEvents, len(evs))
	}
	got, gotVersion := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v", graphShape(got), graphShape(want))
	}
	if gotVersion < wantVersion {
		t.Fatalf("recovered version %d went backwards from %d", gotVersion, wantVersion)
	}
	if got.Day() != 5 {
		t.Fatalf("recovered day %d", got.Day())
	}
}

// TestDurableRecoveryFromCheckpointAndTail checkpoints mid-stream, feeds
// more events, dies uncleanly, and must recover checkpoint + WAL tail.
func TestDurableRecoveryFromCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	m, _ := newMetrics()
	dm := newDurableMetrics()
	cfg, dc := durableCfg(dir, m, dm)
	in, _, err := OpenDurable(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, in, m, genDurableEvents(5, 800))
	if err := in.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if dm.Checkpoints.Value() != 1 {
		t.Fatalf("checkpoints = %d", dm.Checkpoints.Value())
	}
	tail := genDurableEvents(5, 400)
	for i := range tail {
		tail[i].Machine = fmt.Sprintf("late%03d", i%23)
	}
	feed(t, in, m, tail)
	want, _ := in.Snapshot()
	// Unclean death here.

	m2, _ := newMetrics()
	dm2 := newDurableMetrics()
	cfg2, dc2 := durableCfg(dir, m2, dm2)
	in2, info, err := OpenDurable(cfg2, dc2)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Shutdown()
	if !info.CheckpointLoaded || info.UsedFallback {
		t.Fatalf("info = %+v, want checkpoint without fallback", info)
	}
	if info.ReplayedEvents != len(tail) {
		t.Fatalf("replayed %d, want only the %d tail events", info.ReplayedEvents, len(tail))
	}
	got, _ := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v", graphShape(got), graphShape(want))
	}
}

// TestDurableRecoveryTornWALTail truncates the WAL mid-record: recovery
// must keep every intact record and drop only the torn one.
func TestDurableRecoveryTornWALTail(t *testing.T) {
	dir := t.TempDir()
	in, m, _ := openShards(t, dir, 1)
	// Two separate consumes -> at least two WAL records (one per batch).
	feed(t, in, m, genDurableEvents(5, 300))
	feed(t, in, m, []logio.Event{{Kind: logio.EventQuery, Day: 5, Machine: "victim", Domain: "torn.example.com"}})

	// Tear the final record's payload.
	seg := shard0WALSeg(dir)
	if err := faultinject.TruncateTail(seg, 3); err != nil {
		t.Fatal(err)
	}

	m2, _ := newMetrics()
	dm2 := newDurableMetrics()
	cfg2, dc2 := durableCfg(dir, m2, dm2)
	in2, info, err := OpenDurable(cfg2, dc2)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Shutdown()
	if dm2.WAL.TornRecords.Value() != 1 {
		t.Fatalf("torn records = %d, want 1", dm2.WAL.TornRecords.Value())
	}
	if info.ReplayedEvents != 300 {
		t.Fatalf("replayed %d, want 300 (torn victim dropped)", info.ReplayedEvents)
	}
	g, _ := in2.Snapshot()
	if _, ok := g.DomainIndex("torn.example.com"); ok {
		t.Fatal("torn record's event must not survive recovery")
	}
}

// TestDurableRecoveryCorruptCheckpointFallsBack corrupts the newest
// checkpoint; recovery must use the previous generation plus a longer
// WAL replay and still converge on the same graph.
func TestDurableRecoveryCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	in, m, _ := openShards(t, dir, 1)
	feed(t, in, m, genDurableEvents(5, 500))
	if err := in.Checkpoint(); err != nil { // generation 1 (becomes .prev)
		t.Fatal(err)
	}
	feed(t, in, m, genDurableEvents(5, 250))
	if err := in.Checkpoint(); err != nil { // generation 2 (to be corrupted)
		t.Fatal(err)
	}
	extra := []logio.Event{{Kind: logio.EventQuery, Day: 5, Machine: "post", Domain: "post-ckpt.example.org"}}
	feed(t, in, m, extra)
	want, _ := in.Snapshot()

	// Flip a byte inside the newest checkpoint's snapshot payload.
	cur := genCheckpoint(dir)
	fi, err := os.Stat(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(cur, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	m2, _ := newMetrics()
	dm2 := newDurableMetrics()
	cfg2, dc2 := durableCfg(dir, m2, dm2)
	in2, info, err := OpenDurable(cfg2, dc2)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Shutdown()
	if !info.CheckpointLoaded || !info.UsedFallback {
		t.Fatalf("info = %+v, want fallback checkpoint", info)
	}
	if dm2.CheckpointFallbacks.Value() != 1 {
		t.Fatalf("fallbacks = %d", dm2.CheckpointFallbacks.Value())
	}
	// The fallback is older, so replay covers everything after gen 1.
	if info.ReplayedEvents != 251 {
		t.Fatalf("replayed %d, want 251", info.ReplayedEvents)
	}
	got, _ := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v", graphShape(got), graphShape(want))
	}
	if _, ok := got.DomainIndex("post-ckpt.example.org"); !ok {
		t.Fatal("post-checkpoint event lost in fallback recovery")
	}
}

// TestDurableCleanShutdownLeavesEmptyReplay verifies Shutdown's final
// checkpoint: a restart after a clean exit replays nothing.
func TestDurableCleanShutdownLeavesEmptyReplay(t *testing.T) {
	dir := t.TempDir()
	in, m, _ := openShards(t, dir, 1)
	feed(t, in, m, genDurableEvents(5, 400))
	want, _ := in.Snapshot()
	in.Shutdown()
	in.Shutdown() // idempotent with durability attached

	in2, _, info := openShards(t, dir, 1)
	defer in2.Shutdown()
	if !info.CheckpointLoaded || info.ReplayedEvents != 0 {
		t.Fatalf("after clean shutdown: %+v, want checkpoint-only recovery", info)
	}
	got, _ := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v", graphShape(got), graphShape(want))
	}
}

// TestDurableRotationAcrossRestart: events from a later day land after a
// checkpoint of the earlier day; recovery must end up on the later day.
func TestDurableRotationAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	in, m, _ := openShards(t, dir, 1)
	feed(t, in, m, genDurableEvents(5, 100))
	if err := in.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	day6 := genDurableEvents(6, 40)
	feed(t, in, m, day6)
	// Unclean death.

	in2, _, info := openShards(t, dir, 1)
	defer in2.Shutdown()
	if info.Day != 6 {
		t.Fatalf("recovered day %d, want 6", info.Day)
	}
	g, _ := in2.Snapshot()
	if g.Day() != 6 {
		t.Fatalf("live graph day %d, want 6", g.Day())
	}
	if in2.Day() != 6 {
		t.Fatalf("ingester day %d, want 6", in2.Day())
	}
}

// TestDurableWALTruncationKeepsFallbackWindow drives enough checkpoints
// and segment rotations to trigger WAL reclamation, then corrupts the
// newest checkpoint: the fallback must still find every record it
// needs.
func TestDurableWALTruncationKeepsFallbackWindow(t *testing.T) {
	dir := t.TempDir()
	m, _ := newMetrics()
	dm := newDurableMetrics()
	cfg, dc := durableCfg(dir, m, dm)
	dc.SegmentBytes = 4096 // force frequent segment rotation
	in, _, err := OpenDurable(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		evs := genDurableEvents(5, 300)
		for i := range evs {
			evs[i].Machine = fmt.Sprintf("r%d-%s", round, evs[i].Machine)
		}
		feed(t, in, m, evs)
		if err := in.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := in.Snapshot()
	segs, _ := filepath.Glob(shard0WALGlob(dir))
	if len(segs) == 0 {
		t.Fatal("no wal segments on disk")
	}

	cur := genCheckpoint(dir)
	fi, err := os.Stat(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(cur, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	in2, _, info := openShards(t, dir, 1)
	defer in2.Shutdown()
	if !info.UsedFallback {
		t.Fatalf("info = %+v, want fallback", info)
	}
	got, _ := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v (fallback window lost records)", graphShape(got), graphShape(want))
	}
}

// TestWALFlushFitsRecordCap pins the sizing invariant the WAL batching
// relies on: the flush threshold triggers after a line is appended, so a
// record can reach walFlushBytes plus one maximum-size event line (incl.
// newline) and must still be accepted by wal.Append.
func TestWALFlushFitsRecordCap(t *testing.T) {
	if walFlushBytes+logio.MaxLineBytes+1 > wal.MaxRecordBytes {
		t.Fatalf("walFlushBytes (%d) + logio.MaxLineBytes (%d) + 1 exceeds wal.MaxRecordBytes (%d): "+
			"a batch holding large resolution lines would be rejected and silently lose durability",
			walFlushBytes, logio.MaxLineBytes, wal.MaxRecordBytes)
	}
}

// TestDurableLargeBatchKeepsDurability builds one worker batch whose
// serialized size straddles the WAL flush threshold with a huge
// resolution line on top: no WAL append may fail, and every applied
// event must come back on recovery. (Regression: the record used to be
// handed to wal.Append only after the oversized line was already in the
// buffer, tripping ErrTooLarge and dropping the whole batch's
// durability.)
func TestDurableLargeBatchKeepsDurability(t *testing.T) {
	dir := t.TempDir()
	m, _ := newMetrics()
	cfg, dc := durableCfg(dir, m, newDurableMetrics())
	cfg.QueueDepth = 1024
	in, _, err := OpenDurable(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}

	// 511 padded query lines (~200 KiB total) followed by one ~900 KiB
	// line (a grotesque machine ID — only the serialized size matters
	// here): drained as a single 512-event batch below, whose WAL record
	// would have exceeded a 1 MiB cap.
	pad := strings.Repeat("x", 350)
	var evs []logio.Event
	for i := 0; i < 511; i++ {
		evs = append(evs, logio.Event{
			Kind: logio.EventQuery, Day: 5,
			Machine: fmt.Sprintf("m%04d-%s", i, pad),
			Domain:  fmt.Sprintf("h%d.zone.net", i%7),
		})
	}
	evs = append(evs, logio.Event{
		Kind: logio.EventQuery, Day: 5,
		Machine: "fat-" + strings.Repeat("m", 900_000),
		Domain:  "fat.query.net",
	})

	// Stall the single worker on the builder lock so the whole stream
	// queues up and drains as one maximal batch.
	in.shards[0].mu.Lock()
	if err := in.Consume(strings.NewReader(stream(t, evs))); err != nil {
		in.shards[0].mu.Unlock()
		t.Fatal(err)
	}
	in.shards[0].mu.Unlock()
	waitFor(t, "batch applied", func() bool {
		return m.EventsIngested.Value() == int64(len(evs))
	})
	if m.WALAppendFailures.Value() != 0 {
		t.Fatalf("wal append failures = %d, want 0", m.WALAppendFailures.Value())
	}
	want, _ := in.Snapshot()
	// Unclean death: recovery must replay every event, including the fat
	// resolution line.

	in2, _, info := openShards(t, dir, 1)
	defer in2.Shutdown()
	if info.ReplayedEvents != len(evs) {
		t.Fatalf("replayed %d events, want %d", info.ReplayedEvents, len(evs))
	}
	got, _ := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v", graphShape(got), graphShape(want))
	}
	if _, ok := got.DomainIndex("fat.query.net"); !ok {
		t.Fatal("oversized query line lost")
	}
}

// TestDurableFallbackSurvivesNextCheckpoint: after a recovery that fell
// back to the previous checkpoint generation, the first new checkpoint
// must not rotate the known-corrupt current file over the proven-good
// fallback. A second corruption of the (new) current checkpoint must
// therefore still recover through a valid previous generation.
func TestDurableFallbackSurvivesNextCheckpoint(t *testing.T) {
	dir := t.TempDir()
	in, m, _ := openShards(t, dir, 1)
	feed(t, in, m, genDurableEvents(5, 500))
	if err := in.Checkpoint(); err != nil { // generation A (becomes .prev)
		t.Fatal(err)
	}
	feed(t, in, m, genDurableEvents(5, 250))
	if err := in.Checkpoint(); err != nil { // generation B (to be corrupted)
		t.Fatal(err)
	}
	cur := genCheckpoint(dir)
	fi, err := os.Stat(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(cur, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	// Recovery #1 falls back to generation A.
	in2, m2, info := openShards(t, dir, 1)
	if !info.UsedFallback {
		t.Fatalf("info = %+v, want fallback", info)
	}
	// The first post-fallback checkpoint must leave a loadable previous
	// generation behind (generation A, not the corrupt B).
	extra := []logio.Event{{Kind: logio.EventQuery, Day: 5, Machine: "late", Domain: "late.example.net"}}
	feed(t, in2, m2, extra)
	if err := in2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, _ := in2.Snapshot()
	if _, _, _, err := readCheckpoint(genCheckpointPrev(dir), Config{Suffixes: dnsutil.DefaultSuffixList()}, 1); err != nil {
		t.Fatalf("previous checkpoint generation unreadable after post-fallback checkpoint: %v", err)
	}

	// Corrupt the freshly written current checkpoint: recovery #2 must
	// still come back through the valid previous generation.
	fi, err = os.Stat(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(cur, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	in3, _, info3 := openShards(t, dir, 1)
	defer in3.Shutdown()
	if !info3.CheckpointLoaded || !info3.UsedFallback {
		t.Fatalf("info = %+v, want successful fallback recovery", info3)
	}
	got, _ := in3.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v (good fallback generation was clobbered)", graphShape(got), graphShape(want))
	}
	if _, ok := got.DomainIndex("late.example.net"); !ok {
		t.Fatal("post-fallback event lost")
	}
	_ = in2 // left un-shutdown: it simulated a second unclean death
}

func TestCheckpointOnNonDurableIngester(t *testing.T) {
	in := New(Config{Network: "net", StartDay: 1, Workers: 1})
	defer in.Shutdown()
	if err := in.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("err = %v, want ErrNotDurable", err)
	}
}

// TestDurableRestoreRemarksActivity pins the restore half of first-query
// activity marking. A checkpointed builder comes back with its domains
// already flagged as queried, so replaying the WAL tail alone would never
// mark them: a process that died after a checkpoint would forget the
// day's activity for everything the checkpoint covers. The restore path
// re-marks the day for every queried domain of every restored shard, so
// the new process's activity log — and a cold classify-all over it —
// must equal a reference that marked every acknowledged query.
func TestDurableRestoreRemarksActivity(t *testing.T) {
	dir := t.TempDir()
	suffixes := dnsutil.DefaultSuffixList()
	src, _, _ := equivLabelSources()
	open := func(act *activity.Log) (*Ingester, *Metrics, *RecoveryInfo) {
		m, _ := newMetrics()
		cfg, dc := durableCfg(dir, m, newDurableMetrics())
		cfg.Workers = 2
		cfg.Suffixes = suffixes
		cfg.Activity = act
		cfg.PrepareSnapshot = func(g *graph.Graph) { g.ApplyLabels(src(g.Day())) }
		in, info, err := OpenDurable(cfg, dc)
		if err != nil {
			t.Fatal(err)
		}
		return in, m, info
	}

	in, m, _ := open(activity.NewLog())
	head := genEquivEvents(5)
	feed(t, in, m, head)
	if err := in.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The tail repeats checkpointed names (no first query left to see) and
	// adds new ones (first queries found by the replay).
	tail := head[:200:200]
	for i := 0; i < 40; i++ {
		tail = append(tail, logio.Event{
			Kind: logio.EventQuery, Day: 5,
			Machine: fmt.Sprintf("inf%02d", i%12), Domain: fmt.Sprintf("tail%d.late.example", i%9),
		})
	}
	feed(t, in, m, tail)
	// Unclean death: no Shutdown, no final checkpoint.

	act2 := activity.NewLog()
	in2, _, info := open(act2)
	defer in2.Shutdown()
	if !info.CheckpointLoaded || info.ReplayedEvents != len(tail) {
		t.Fatalf("recovery info = %+v, want checkpoint + %d replayed events", info, len(tail))
	}

	all := slices.Concat(head, tail)
	refAct := activity.NewLog()
	markEveryQuery(refAct, suffixes, all)
	requireActivityEquivalent(t, refAct, act2, suffixes, all, 5, 5)

	want := refReplay("net", 5, suffixes, all).Snapshot()
	want.ApplyLabels(src(5))
	got, _ := in2.Snapshot()
	requireGraphsEquivalent(t, want, got, refAct)
	requireClassifyAllEquivalent(t, want, refAct, got, act2)
}
