package ingest

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/faultinject"
	"segugio/internal/graph"
	"segugio/internal/logio"
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

// serialRecovery is the recovery loadGeneration replaced — each stripe's
// checkpoint pair and WAL replay one after another — followed by what
// OpenDurable and New do with the result: day alignment and the activity
// re-mark of every restored domain. It is the reference the concurrent
// recovery must equal.
func serialRecovery(t *testing.T, cfg Config, dc DurableConfig) ([]*graph.Builder, uint64, *RecoveryInfo) {
	t.Helper()
	man, err := readManifest(dc.Dir)
	if err != nil || man == nil {
		t.Fatalf("manifest %v, %v", man, err)
	}
	dc.genDir = filepath.Join(dc.Dir, genDirName(man.Gen))
	info := &RecoveryInfo{Shards: man.Shards}
	builders := make([]*graph.Builder, man.Shards)
	var maxVersion uint64
	for s := range builders {
		b, v, pos := loadCheckpointPair(
			filepath.Join(dc.genDir, shardCheckpointFile(s)),
			filepath.Join(dc.genDir, shardCheckpointPrevFile(s)),
			&dc, cfg, info)
		if b == nil {
			b = graph.NewBuilder(cfg.Network, cfg.StartDay, cfg.Suffixes)
		}
		maxVersion = max(maxVersion, v)
		l, err := openShardWAL(&dc, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err = replayShardWAL(l, pos, b, cfg, &dc, info)
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		builders[s] = b
		if s == 0 {
			info.WALStart = pos
		}
	}
	alignShardDays(builders, cfg)
	info.Day = builders[0].Day()
	domains := make(map[string]struct{})
	for _, b := range builders {
		info.Machines += b.NumMachines()
		for _, name := range b.DomainNamesSince(0) {
			domains[name] = struct{}{}
		}
		b.EachQueriedDomain(func(domain, e2ld string) {
			markActive(cfg.Activity, info.Day, domain, e2ld)
		})
	}
	info.Domains = len(domains)
	return builders, maxVersion + uint64(info.ReplayedEvents), info
}

// TestDurableConcurrentRecovery recovers a 4-stripe state — checkpoints
// plus WAL tails, one stripe on its .prev fallback, a day boundary in the
// tails — with the concurrent recovery and with the serial reference, each
// on its own copy of the directory: builders, activity log, RecoveryInfo
// and version must be identical.
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
	if err := in.Checkpoint(); err != nil { // generation 1: every .prev
		t.Fatal(err)
	}
	mid := genDurableEvents(5, 600)
	feed(t, in, cfg.Metrics, mid)
	if err := in.Checkpoint(); err != nil { // generation 2: shard 2's is corrupted below
		t.Fatal(err)
	}
	tail := genDurableEvents(5, 300)
	for i := range tail {
		tail[i].Machine = fmt.Sprintf("late%03d", i%31)
	}
	// The last events cross into day 6 on some stripes only.
	next := genDurableEvents(6, 40)
	feed(t, in, cfg.Metrics, tail)
	feed(t, in, cfg.Metrics, next)
	// Unclean death: no Shutdown, no final checkpoint.

	cur := filepath.Join(dir, genDirName(1), shardCheckpointFile(2))
	fi, err := os.Stat(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipByte(cur, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	concDir, serialDir := t.TempDir(), t.TempDir()
	copyTree(t, dir, concDir)
	copyTree(t, dir, serialDir)

	gotAct, wantAct := activity.NewLog(), activity.NewLog()
	ccfg, cdc := cfgFor(concDir, gotAct)
	got, info, err := OpenDurable(ccfg, cdc)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Shutdown()
	scfg, sdc := cfgFor(serialDir, wantAct)
	want, wantVersion, wantInfo := serialRecovery(t, scfg, sdc)

	if !info.UsedFallback || info.ReplayedEvents == 0 {
		t.Fatalf("recovery info = %+v, want a fallback stripe and replayed tails", info)
	}
	if !reflect.DeepEqual(info, wantInfo) {
		t.Fatalf("RecoveryInfo = %+v, serial reference %+v", info, wantInfo)
	}
	if v := got.version.Load(); v != wantVersion {
		t.Fatalf("version = %d, serial reference %d", v, wantVersion)
	}
	for s, sh := range got.shards {
		sh.mu.Lock()
		g := sh.builder.Snapshot()
		sh.mu.Unlock()
		if gc, wc := graphContent(g), graphContent(want[s].Snapshot()); !slices.Equal(gc, wc) {
			t.Fatalf("shard %d: %d entries recovered, serial reference %d", s, len(gc), len(wc))
		}
	}
	all := slices.Concat(head, mid, tail, next)
	requireActivityEquivalent(t, wantAct, gotAct, suffixes, all, 0, 10)
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
