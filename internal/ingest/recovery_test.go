package ingest

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/faultinject"
	"segugio/internal/graph"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/wal"
)

// copyTree copies the regular files and directories under src to dst.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
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

// dirListing is every path under dir with its size (-1 for directories).
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		size := int64(-1)
		if !d.IsDir() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			size = fi.Size()
		}
		out[path] = size
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// graphContent renders a graph's edges and resolutions by name, sorted,
// so graphs built in different intern orders compare equal.
func graphContent(g *graph.Graph) []string {
	out := []string{fmt.Sprintf("day %d", g.Day())}
	for m := int32(0); m < int32(g.NumMachines()); m++ {
		for _, d := range g.DomainsOf(m) {
			out = append(out, "q "+g.MachineID(m)+" "+g.DomainName(d))
		}
	}
	for d := int32(0); d < int32(g.NumDomains()); d++ {
		for _, ip := range g.DomainIPs(d) {
			out = append(out, "r "+g.DomainName(d)+" "+ip.String())
		}
	}
	slices.Sort(out)
	return out
}

// TestDurableConcurrentRecovery recovers a 4-stripe state — two
// checkpoints, the newer one corrupted so recovery falls back to the
// older, and WAL tails with a day boundary that only some stripes cross
// before others finish their day — through the parallel stripe replay:
// the graph must be the newest day's events and the activity log must
// hold a mark for every replayed query, whichever stripe rotates first.
func TestDurableConcurrentRecovery(t *testing.T) {
	dir := t.TempDir()
	suffixes := dnsutil.DefaultSuffixList()
	cfgFor := func(dir string, act *activity.Log) (Config, DurableConfig) {
		m, _ := newMetrics()
		cfg, dc := durableCfg(dir, m, newDurableMetrics())
		cfg.Workers, cfg.Suffixes, cfg.Activity = 4, suffixes, act
		return cfg, dc
	}
	cfg, dc := cfgFor(dir, activity.NewLog())
	in, _, err := OpenDurable(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	head := genEquivEvents(5)
	feed(t, in, cfg.Metrics, head)
	if err := in.Checkpoint(); err != nil { // becomes the .prev fallback
		t.Fatal(err)
	}
	mid := genDurableEvents(5, 600)
	feed(t, in, cfg.Metrics, mid)
	if err := in.Checkpoint(); err != nil { // corrupted below
		t.Fatal(err)
	}
	tail := genDurableEvents(5, 300)
	for i := range tail {
		tail[i].Machine = fmt.Sprintf("late%03d", i%31)
	}
	next := genDurableEvents(6, 40)
	feed(t, in, cfg.Metrics, tail)
	feed(t, in, cfg.Metrics, next)
	// Unclean death: no Shutdown, no final checkpoint.

	cur := filepath.Join(dir, genDirName(1), checkpointFile)
	fi, err := os.Stat(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(cur, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	replayed := slices.Concat(mid, tail, next)
	want := refReplay("net", 5, suffixes, slices.Concat(head, replayed)).Snapshot()
	wantAct := activity.NewLog()
	markEveryQuery(wantAct, suffixes, replayed)
	for round := 0; round < 3; round++ {
		copyDir := t.TempDir()
		copyTree(t, dir, copyDir)
		gotAct := activity.NewLog()
		ccfg, cdc := cfgFor(copyDir, gotAct)
		got, info, err := OpenDurable(ccfg, cdc)
		if err != nil {
			t.Fatal(err)
		}
		if !info.CheckpointLoaded || !info.UsedFallback || info.ReplayedEvents != len(replayed) || info.Day != 6 {
			t.Fatalf("recovery info = %+v, want the fallback checkpoint and %d replayed events ending on day 6", info, len(replayed))
		}
		g, _ := got.Snapshot()
		if gc, wc := graphContent(g), graphContent(want); !slices.Equal(gc, wc) {
			t.Fatalf("round %d: %d entries recovered, reference %d", round, len(gc), len(wc))
		}
		requireActivityEquivalent(t, wantAct, gotAct, suffixes, slices.Concat(head, replayed), 0, 10)
		got.Shutdown()
	}
}

// TestDurableRecoveryRules pins what WAL replay does differently from
// the live stream. Both stripes of a two-stripe WAL span days 5 and 6, so
// replay rotates once and, when one stripe crosses the day before the
// other finishes day 5, meets day-5 events older than the epoch. Recovery
// must count nothing — no rotation, no stale event, no event applied in
// total or per shard — call no OnRotate, and leave the activity of every
// replayed query on its own day, as a reference that marks each one.
func TestDurableRecoveryRules(t *testing.T) {
	dir := t.TempDir()
	suffixes := dnsutil.DefaultSuffixList()
	open := func(act *activity.Log, onRotate func(int, *graph.Graph)) (*Ingester, *Metrics, *RecoveryInfo) {
		m, r := newMetrics()
		m.ShardEvents = []*metrics.Counter{r.NewCounter("shard0_events", "", ""), r.NewCounter("shard1_events", "", "")}
		cfg, dc := durableCfg(dir, m, newDurableMetrics())
		cfg.Workers, cfg.Suffixes, cfg.Activity, cfg.OnRotate = 2, suffixes, act, onRotate
		in, info, err := OpenDurable(cfg, dc)
		if err != nil {
			t.Fatal(err)
		}
		return in, m, info
	}
	in, m, _ := open(activity.NewLog(), nil)
	day5, day6 := genEquivEvents(5), genDurableEvents(6, 300)
	feed(t, in, m, day5)
	feed(t, in, m, day6)
	// Unclean death before any checkpoint: both stripes replay whole.

	var rotated atomic.Int32
	act := activity.NewLog()
	in2, m2, info := open(act, func(int, *graph.Graph) { rotated.Add(1) })
	defer in2.Shutdown()
	all := slices.Concat(day5, day6)
	if info.CheckpointLoaded || info.ReplayedEvents != len(all) || info.Day != 6 {
		t.Fatalf("recovery info = %+v, want %d replayed events ending on day 6", info, len(all))
	}
	if r, s, n := m2.Rotations.Value(), m2.EventsStale.Value(), m2.EventsIngested.Value(); r != 0 || s != 0 || n != 0 {
		t.Fatalf("replay counted %d rotations, %d stale and %d ingested events, want none", r, s, n)
	}
	for s, c := range m2.ShardEvents {
		if c.Value() != 0 {
			t.Fatalf("replay counted %d events on shard %d, want none", c.Value(), s)
		}
	}
	if n := rotated.Load(); n != 0 {
		t.Fatalf("replay called OnRotate %d times, want none", n)
	}
	wantAct := activity.NewLog()
	markEveryQuery(wantAct, suffixes, all)
	requireActivityEquivalent(t, wantAct, act, suffixes, all, 5, 6)
}

// crashedStripes leaves dir holding a 4-stripe state that died uncleanly
// after a checkpoint, every stripe with a WAL tail to replay. It returns
// the tail and the graph a full recovery must come back with.
func crashedStripes(t *testing.T, dir string) ([]logio.Event, *graph.Graph) {
	t.Helper()
	in, m, _ := openShards(t, dir, 4)
	feed(t, in, m, genDurableEvents(5, 800))
	if err := in.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tail := genDurableEvents(5, 300)
	for i := range tail {
		tail[i].Machine = fmt.Sprintf("late%03d", i%23)
	}
	feed(t, in, m, tail)
	want, _ := in.Snapshot()
	// Unclean death: no Shutdown, no final checkpoint.
	return tail, want
}

// requireRefusedIntact reopens dir at 4 shards (the same-count path) and
// at 2 (the rehash path), hook applied to each DurableConfig: OpenDurable
// must fail with an error containing want and leave the state directory
// exactly as it was.
func requireRefusedIntact(t *testing.T, dir, want string, hook func(*DurableConfig)) {
	t.Helper()
	before := dirListing(t, dir)
	for _, workers := range []int{4, 2} {
		m, _ := newMetrics()
		cfg, dc := durableCfg(dir, m, newDurableMetrics())
		cfg.Workers = workers
		hook(&dc)
		if in, _, err := OpenDurable(cfg, dc); err == nil || !strings.Contains(err.Error(), want) {
			if in != nil {
				in.Shutdown()
			}
			t.Fatalf("-workers %d: OpenDurable = %v, want an error containing %q", workers, err, want)
		}
		if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("-workers %d: the failed open changed the state directory:\n before %v\n after  %v", workers, before, after)
		}
	}
}

// requireFullRecovery reopens dir cleanly at 2 shards: the rehash must
// replay the whole tail and come back with want.
func requireFullRecovery(t *testing.T, dir string, tail []logio.Event, want *graph.Graph) {
	t.Helper()
	in, _, info := openShards(t, dir, 2)
	defer in.Shutdown()
	if !info.Rehashed || info.ReplayedEvents != len(tail) {
		t.Fatalf("recovery info = %+v, want a rehash replaying the %d tail events", info, len(tail))
	}
	if got, _ := in.Snapshot(); graphShape(got) != graphShape(want) {
		t.Fatalf("recovered shape %v, want %v", graphShape(got), graphShape(want))
	}
}

// TestDurableRehashRefusesUnreadableStripe makes one stripe of a 4-shard
// state impossible to open — a directory where its next segment file
// would be — and reopens it at 4 and at 2 shards: OpenDurable must fail
// naming the stripe and leave the generation exactly as it was, instead
// of rehashing without the stripe's acknowledged tail and deleting it.
func TestDurableRehashRefusesUnreadableStripe(t *testing.T) {
	dir := t.TempDir()
	tail, want := crashedStripes(t, dir)
	stripeDir := filepath.Join(dir, genDirName(1), shardWALDir(2))
	segs, err := filepath.Glob(filepath.Join(stripeDir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("stripe 2 segments: %v, %v", segs, err)
	}
	slices.Sort(segs)
	var last uint64
	fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "wal-%d.seg", &last)
	planted := filepath.Join(stripeDir, fmt.Sprintf("wal-%08d.seg", last+1))
	if err := os.Mkdir(planted, 0o755); err != nil {
		t.Fatal(err)
	}

	requireRefusedIntact(t, dir, "open wal stripe 2", func(*DurableConfig) {})

	// Once the stripe is readable again nothing was lost.
	if err := os.Remove(planted); err != nil {
		t.Fatal(err)
	}
	requireFullRecovery(t, dir, tail, want)
}

// TestDurableRefusesReplayReadError fails stripe 2's WAL replay with an
// I/O error after its Open went through, at 4 and at 2 shards: OpenDurable
// must fail naming the stripe and leave the generation as it was. Keeping
// the readable prefix instead would lose the unread acknowledged records
// for good — to the next checkpoint's WAL position at the same shard
// count, to the old generation's deletion on a rehash.
func TestDurableRefusesReplayReadError(t *testing.T) {
	dir := t.TempDir()
	tail, want := crashedStripes(t, dir)
	stripeDir := filepath.Join(dir, genDirName(1), shardWALDir(2)) + string(filepath.Separator)

	requireRefusedIntact(t, dir, "replay wal stripe 2", func(dc *DurableConfig) {
		var scans atomic.Int32
		dc.WALHooks = &wal.Hooks{WrapRead: func(r io.Reader) io.Reader {
			// The stripe's first scan is Open's tail repair, the second
			// its replay: only the replay reads through the fault.
			if f, ok := r.(*os.File); ok && strings.HasPrefix(f.Name(), stripeDir) && scans.Add(1) > 1 {
				return &faultinject.FlakyReader{R: r, FailAfter: 10}
			}
			return r
		}}
	})
	requireFullRecovery(t, dir, tail, want)
}

// TestDurableCheckpointBesideConsumersRecoversAcknowledged takes
// checkpoints in a loop while four connections stream, stops after one
// lands mid-stream, lets every event be acknowledged (applied and synced,
// SyncEvery 1) and abandons the ingester without Shutdown. A new process
// must recover exactly the acknowledged events from the last checkpoint
// plus the stripe tails past its positions: none lost, none doubled.
// Checkpoints beside ingest once lost served evidence when a shard's
// checkpoint raced the fold of its delta; a checkpoint is now the
// snapshot of a fold, its positions read under the same locks.
func TestDurableCheckpointBesideConsumersRecoversAcknowledged(t *testing.T) {
	suffixes := dnsutil.DefaultSuffixList()
	dir := t.TempDir()
	m, _ := newMetrics()
	cfg, dc := durableCfg(dir, m, newDurableMetrics())
	cfg.Workers, cfg.Suffixes, cfg.Activity, cfg.QueueDepth = 4, suffixes, activity.NewLog(), 64
	in, _, err := OpenDurable(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	// No Shutdown: the test ends in an unclean death.

	var parts [4][]logio.Event
	var all []logio.Event
	for i := 0; i < 6000; i++ {
		p := i % 4
		e := logio.Event{Kind: logio.EventQuery, Day: 5,
			Machine: fmt.Sprintf("c%d-m%03d", p, i%97), Domain: fmt.Sprintf("h%d.zone%d.example", i%331, i%17)}
		if i%9 == 0 {
			e = logio.Event{Kind: logio.EventResolution, Day: 5, Domain: e.Domain, IPs: []dnsutil.IPv4{dnsutil.IPv4(0x0a000000 + uint32(i%513))}}
		}
		parts[p] = append(parts[p], e)
		all = append(all, e)
	}

	stop := make(chan struct{})
	ckpts := make(chan int, 1)
	go func() {
		n := 0
		defer func() { ckpts <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := in.Checkpoint(); err != nil {
				t.Errorf("checkpoint beside consumers: %v", err)
				return
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for p := range parts {
		wire := stream(t, parts[p])
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := in.Consume(strings.NewReader(wire)); err != nil {
				t.Errorf("consume: %v", err)
			}
		}()
	}
	// Stop checkpointing partway, so the last checkpoint cuts the streams.
	waitFor(t, "a third of the stream applied", func() bool { return m.EventsIngested.Value() >= int64(len(all)/3) })
	close(stop)
	if n := <-ckpts; n == 0 {
		t.Fatal("no checkpoint completed beside the consumers")
	}
	wg.Wait()
	waitFor(t, "every event acknowledged", func() bool { return m.EventsIngested.Value() == int64(len(all)) })

	act := activity.NewLog()
	m2, _ := newMetrics()
	cfg2, dc2 := durableCfg(dir, m2, newDurableMetrics())
	cfg2.Workers, cfg2.Suffixes, cfg2.Activity = 4, suffixes, act
	in2, info, err := OpenDurable(cfg2, dc2)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Shutdown()
	if !info.CheckpointLoaded || info.ReplayedEvents == 0 || info.ReplayedEvents >= len(all) {
		t.Fatalf("recovery info = %+v, want a mid-stream checkpoint plus a WAL tail", info)
	}
	got, _ := in2.Snapshot()
	want := refReplay("net", 5, suffixes, all).Snapshot()
	if gc, wc := graphContent(got), graphContent(want); !slices.Equal(gc, wc) {
		t.Fatalf("recovered %d entries, the acknowledged stream holds %d", len(gc), len(wc))
	}
	wantAct := activity.NewLog()
	markEveryQuery(wantAct, suffixes, all)
	requireActivityEquivalent(t, wantAct, act, suffixes, all, 5, 5)
}

// TestDurableReadsShardCheckpointLayout opens a state directory the
// previous layout wrote (testdata/shard-checkpoints-v1: manifest format 1,
// four shards with a checkpoint pair each, and WAL tails past the
// checkpoints that cross from day 5 into day 6 on some stripes; the
// process died without a final checkpoint). The recovered graph, activity
// marks and version must be the ones that layout's own recovery produced
// (expect.json), and the directory must be left as a format-2 generation:
// one checkpoint pair, and the same graph again on the next open.
func TestDurableReadsShardCheckpointLayout(t *testing.T) {
	const fixture = "testdata/shard-checkpoints-v1"
	raw, err := os.ReadFile(filepath.Join(fixture, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Version uint64
		Graph   []string
		Marks   []string
		Domains int
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join(fixture, "state"), dir)

	open := func(act *activity.Log) (*Ingester, *RecoveryInfo) {
		t.Helper()
		m, _ := newMetrics()
		cfg, dc := durableCfg(dir, m, newDurableMetrics())
		cfg.Network, cfg.Workers, cfg.Activity = "legacy", 4, act
		in, info, err := OpenDurable(cfg, dc)
		if err != nil {
			t.Fatal(err)
		}
		return in, info
	}
	act := activity.NewLog()
	in, info := open(act)
	g, v := in.Snapshot()
	in.Shutdown()
	if !info.CheckpointLoaded || info.ReplayedEvents == 0 || info.Day != 6 {
		t.Fatalf("recovery info = %+v, want the shard checkpoints plus replayed tails ending on day 6", info)
	}
	if v != want.Version {
		t.Fatalf("version %d, the previous layout recovered %d", v, want.Version)
	}
	if got := graphContent(g); !slices.Equal(got, want.Graph) {
		t.Fatalf("recovered graph:\n%v\nthe previous layout recovered:\n%v", got, want.Graph)
	}
	if got := activityMarks(act, want.Marks); !slices.Equal(got, want.Marks) || act.Domains() != want.Domains {
		t.Fatalf("activity marks (%d domains):\n%v\nthe previous layout recovered (%d domains):\n%v", act.Domains(), got, want.Domains, want.Marks)
	}

	man, err := readManifest(dir)
	if err != nil || man.Format != ManifestFormatVersion || man.Shards != 4 || man.Gen != 2 {
		t.Fatalf("manifest after the migration = %+v, %v; want format %d, 4 shards, generation 2", man, err, ManifestFormatVersion)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, genDirName(2), "checkpoint*.gob"))
	if old, _ := filepath.Glob(filepath.Join(dir, genDirName(1))); len(old) != 0 || len(ckpts) == 0 || len(ckpts) > 2 {
		t.Fatalf("after the migration: old generation %v, checkpoints %v; want one pair and no generation 1", old, ckpts)
	}
	in2, info2 := open(activity.NewLog())
	defer in2.Shutdown()
	g2, _ := in2.Snapshot()
	if !info2.CheckpointLoaded || info2.ReplayedEvents != 0 || !slices.Equal(graphContent(g2), want.Graph) {
		t.Fatalf("reopened format-2 state: info %+v, %d entries; want the same graph from its checkpoint alone", info2, len(graphContent(g2)))
	}
}

// activityMarks lists, sorted, the per-day domain ("d") and e2LD ("e")
// marks act holds for the names in marks, over days 3 to 8.
func activityMarks(act *activity.Log, marks []string) []string {
	var out []string
	for _, mk := range marks {
		var kind, name string
		var day int
		fmt.Sscanf(mk, "%s %d %s", &kind, &day, &name)
		for d := 3; d <= 8; d++ {
			on := act.DomainActiveDays(name, d, d) == 1
			if kind == "e" {
				on = act.E2LDActiveDays(name, d, d) == 1
			}
			if on {
				out = append(out, fmt.Sprintf("%s %d %s", kind, d, name))
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
