package ingest

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/wal"
)

// Durability layer: OpenDurable wraps New with a write-ahead log and
// periodic checkpoints so an unclean death loses at most the WAL's
// unsynced suffix instead of the whole day's graph.
//
// Each shard owns a WAL stripe, appended inside shardApply's critical
// section beside the shard's stage; the day builder owns one A/B
// checkpoint pair per layout generation, and MANIFEST.json at the
// state-dir root names the generation and its shard count. A checkpoint
// is the snapshot of a fold, whose stripe positions were read under the
// same shard locks as the stages it took, so it holds exactly the records
// before them. Recovery decodes the newest intact checkpoint (falling back
// to the previous one, which works because stripes are only reclaimed up
// to the positions one checkpoint back) and replays every stripe from its
// position, in parallel, through the live apply path. A -workers change,
// or a format-1 manifest (a checkpoint pair per shard), is followed by a
// new generation at the requested count, written before the old one is
// deleted; the manifest flip is the commit, and generation directories it
// does not name are orphans swept at the next open.

// State-directory layout names: the manifest at the root names the live
// per-generation directory.
const (
	manifestFile = "MANIFEST.json"
	genDirPrefix = "gen-"
	// checkpointFile and checkpointPrevFile are a generation's A/B pair.
	checkpointFile     = "checkpoint.gob"
	checkpointPrevFile = "checkpoint.prev.gob"
)

// CheckpointFormatVersion is the current checkpoint file format: the day
// builder's snapshot plus every stripe's position. Format 1 held one
// shard's snapshot and its stripe's position.
const CheckpointFormatVersion = 2

// ManifestFormatVersion is the current MANIFEST.json format: one
// checkpoint pair per generation. Format 1 (a pair per shard) is read
// once, at the open that migrates it.
const ManifestFormatVersion = 2

// ErrNotDurable is returned by Checkpoint on an ingester built with New
// instead of OpenDurable.
var ErrNotDurable = errors.New("ingest: ingester has no durability layer")

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

type checkpointWire struct {
	Version      int
	GraphVersion uint64
	Day          int
	// WALSegment/WALOffset are format 1's one stripe position.
	WALSegment uint64
	WALOffset  int64
	// Stripes is format 2's position of every stripe, in stripe order.
	Stripes []wal.Pos
	// CRC is the Castagnoli checksum of Snapshot; gob's self-describing
	// framing catches structural damage, the CRC catches flipped bits
	// inside the opaque snapshot bytes.
	CRC      uint32
	Snapshot []byte
}

// manifestWire is MANIFEST.json: which generation directory is live and
// how many shards it was written with.
type manifestWire struct {
	Format int
	Shards int
	Gen    uint64
}

func genDirName(gen uint64) string {
	return fmt.Sprintf("%s%06d", genDirPrefix, gen)
}

// shardCheckpointFile and shardCheckpointPrevFile name format 1's
// per-shard pair.
func shardCheckpointFile(s int) string {
	return fmt.Sprintf("checkpoint-%04d.gob", s)
}

func shardCheckpointPrevFile(s int) string {
	return fmt.Sprintf("checkpoint-%04d.prev.gob", s)
}

func shardWALDir(s int) string {
	return fmt.Sprintf("wal-%04d", s)
}

// DurableMetrics bundles the durability layer's instrumentation. Any
// field may be nil.
type DurableMetrics struct {
	// WAL hooks are passed through to every write-ahead log stripe.
	WAL wal.Metrics
	// ReplayedEvents counts events re-applied from the WAL at startup.
	ReplayedEvents *metrics.Counter
	// ReplayErrors counts CRC-intact WAL records skipped during recovery
	// because their contents did not parse (version skew or a bug).
	ReplayErrors *metrics.Counter
	// CheckpointFallbacks counts recoveries that had to discard the newest
	// checkpoint and use the previous one.
	CheckpointFallbacks *metrics.Counter
	// Checkpoints / CheckpointFailures count checkpoints written and
	// failed.
	Checkpoints        *metrics.Counter
	CheckpointFailures *metrics.Counter
	// LastCheckpointUnix is the wall-clock second of the newest durable
	// checkpoint round.
	LastCheckpointUnix *metrics.Gauge
}

// DurableConfig parameterizes the durability layer.
type DurableConfig struct {
	// Dir is the state directory: MANIFEST.json lives at its root, the
	// checkpoint pair and the per-shard WAL stripes under the generation
	// directory it names. Required.
	Dir string
	// CheckpointEvery is the checkpoint interval (default 30s).
	CheckpointEvery time.Duration
	// SyncInterval bounds how stale the WAL's durable prefix may be
	// (default 1s): a background loop fsyncs at this cadence on top of
	// the count-based batching.
	SyncInterval time.Duration
	// SyncEvery fsyncs after this many WAL records (default 256; 1 makes
	// every applied batch durable before the next is accepted).
	SyncEvery int
	// SegmentBytes sizes WAL segment files (default 8 MiB).
	SegmentBytes int64
	// Metrics hooks; may be nil.
	Metrics *DurableMetrics
	// WALHooks are passed through to wal.Options.Hooks — the fault
	// injection seam the chaos harness uses to simulate ENOSPC and slow
	// fsyncs. Production configs leave it nil.
	WALHooks *wal.Hooks

	m       DurableMetrics // resolved copy
	genDir  string         // current generation directory
	lastPos []wal.Pos      // per-stripe positions of the previous checkpoint
}

// RecoveryInfo reports what startup recovery found and rebuilt.
type RecoveryInfo struct {
	// CheckpointLoaded is true when a checkpoint decoded successfully.
	CheckpointLoaded bool
	// UsedFallback is true when a newest checkpoint was corrupt and the
	// previous one was used instead.
	UsedFallback bool
	// Rehashed is true when the on-disk shard count differed from the
	// requested one: every stripe was replayed and a new generation
	// written at the requested count.
	Rehashed bool
	// Shards is the shard count the recovered ingester runs with.
	Shards int
	// ReplayedEvents is how many events were re-applied from the WAL.
	ReplayedEvents int
	// ReplayErrors is how many intact WAL records failed to parse and
	// were skipped.
	ReplayErrors int
	// Day, Machines, Domains describe the recovered live graph.
	Day      int
	Machines int
	Domains  int
}

func (ri *RecoveryInfo) String() string {
	if ri == nil {
		return "no recovery"
	}
	src := "fresh start"
	if ri.CheckpointLoaded {
		src = "checkpoint"
		if ri.UsedFallback {
			src = "fallback checkpoint"
		}
	}
	extra := ""
	if ri.Rehashed {
		extra = fmt.Sprintf(" (rehashed to %d shards)", ri.Shards)
	}
	return fmt.Sprintf("%s + %d replayed events (%d unparseable) -> day %d, %d machines, %d domains%s",
		src, ri.ReplayedEvents, ri.ReplayErrors, ri.Day, ri.Machines, ri.Domains, extra)
}

// OpenDurable builds an Ingester whose state survives crashes: it
// recovers the newest intact checkpoint from dc.Dir, replays every WAL
// stripe's tail on top, and returns an ingester that logs every applied
// event to its shard's stripe and checkpoints periodically. If the
// on-disk shard count differs from cfg.Workers, or the manifest is of
// format 1, the recovered state is written as a new generation at
// cfg.Workers first. The RecoveryInfo describes what was rebuilt (a fresh
// start on an empty directory is not an error). A directory holding the
// pre-manifest layout is refused with an error naming the files,
// untouched.
func OpenDurable(cfg Config, dc DurableConfig) (*Ingester, *RecoveryInfo, error) {
	if dc.Dir == "" {
		return nil, nil, errors.New("ingest: DurableConfig.Dir is required")
	}
	if dc.CheckpointEvery <= 0 {
		dc.CheckpointEvery = 30 * time.Second
	}
	if dc.SyncInterval <= 0 {
		dc.SyncInterval = time.Second
	}
	if dc.Metrics != nil {
		dc.m = *dc.Metrics
	}
	if cfg.Suffixes == nil {
		cfg.Suffixes = dnsutil.DefaultSuffixList()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if err := os.MkdirAll(dc.Dir, 0o755); err != nil {
		return nil, nil, err
	}

	info := &RecoveryInfo{Shards: cfg.Workers}
	man, err := readManifest(dc.Dir)
	if err != nil {
		return nil, nil, err
	}
	if found := preManifestLayout(dc.Dir); man == nil && len(found) > 0 {
		return nil, nil, fmt.Errorf("ingest: %s holds a pre-manifest state layout (%s) this build does not read; move it aside or pick another state directory",
			dc.Dir, strings.Join(found, ", "))
	}
	// Sweep generation directories the manifest does not name: they are
	// leftovers of a migration that crashed before (orphan new gen) or
	// after (orphan old gen) the manifest flipped. With no manifest at
	// all, every generation directory is such an orphan.
	if man != nil {
		sweepOrphanGens(dc.Dir, man.Gen)
	} else {
		sweepOrphanGens(dc.Dir, 0)
	}

	if man == nil {
		// Fresh state directory: generation 1 at the requested shard count,
		// with no checkpoint until there is something to persist — an empty
		// one would make a later WAL-only recovery misreport
		// CheckpointLoaded.
		in := New(cfg)
		if err := in.writeGeneration(&dc, 1, false); err != nil {
			in.Shutdown()
			return nil, nil, err
		}
		in.startDurability(&dc)
		info.Day = in.Day()
		return in, info, nil
	}

	dc.genDir = filepath.Join(dc.Dir, genDirName(man.Gen))
	restored, version, pos := loadCheckpoints(&dc, cfg, man, info)
	cfg.restored, cfg.restoredVersion = restored, version
	in := New(cfg)
	stripes, err := in.replayStripes(&dc, man.Shards, pos, info)
	if err != nil {
		in.Shutdown()
		return nil, nil, err
	}
	in.version.Store(max(in.version.Load(), version+uint64(info.ReplayedEvents)))
	// Activity is marked on a domain's first query, and the checkpoint
	// has seen its domains' first queries already: re-mark its day for
	// every one of them, or a restart would forget the day — unless the
	// replay rotated past it.
	if act := cfg.Activity; act != nil && restored != nil && in.ep.Load().builder == restored {
		restored.EachQueriedDomain(func(domain, e2ld string) {
			markActive(act, restored.Day(), domain, e2ld)
		})
	}

	if man.Format == ManifestFormatVersion && man.Shards == cfg.Workers {
		// Same layout: the replayed stripes stay open for new appends.
		in.attachStripes(stripes)
		dc.lastPos = pos
	} else {
		closeAll(stripes)
		if err := in.writeGeneration(&dc, man.Gen+1, true); err != nil {
			in.Shutdown()
			return nil, nil, err
		}
		info.Rehashed = man.Shards != cfg.Workers
		os.RemoveAll(filepath.Join(dc.Dir, genDirName(man.Gen)))
	}
	in.startDurability(&dc)
	in.publishGauges()
	b := in.ep.Load().builder
	info.Day, info.Machines, info.Domains = b.Day(), b.NumMachines(), b.NumDomains()
	return in, info, nil
}

// readManifest loads MANIFEST.json; a missing file returns (nil, nil).
func readManifest(dir string) (*manifestWire, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man manifestWire
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("ingest: parse %s: %w", manifestFile, err)
	}
	if man.Format != 1 && man.Format != ManifestFormatVersion {
		return nil, fmt.Errorf("ingest: manifest format %d, this build reads 1 and %d", man.Format, ManifestFormatVersion)
	}
	if man.Shards <= 0 || man.Gen == 0 {
		return nil, fmt.Errorf("ingest: manifest names %d shards, generation %d", man.Shards, man.Gen)
	}
	return &man, nil
}

// writeManifest atomically publishes the manifest — the commit point of
// a layout migration.
func writeManifest(dir string, man manifestWire) error {
	return core.WriteAtomic(filepath.Join(dir, manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(man)
	})
}

// sweepOrphanGens deletes generation directories other than the live
// one. Best effort: an undeletable orphan only wastes disk.
func sweepOrphanGens(dir string, live uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := genDirName(live)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() && len(name) > len(genDirPrefix) && name[:len(genDirPrefix)] == genDirPrefix && name != keep {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
}

// preManifestLayout lists what dir holds of the state layout that predates
// the manifest (one checkpoint pair and one WAL at the root). Without a
// manifest such a directory is refused: treating it as fresh would start
// an empty graph beside real state.
func preManifestLayout(dir string) []string {
	var found []string
	for _, name := range []string{"checkpoint.gob", "checkpoint.prev.gob", "wal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			found = append(found, name)
		}
	}
	return found
}

// loadCheckpoints recovers the day builder a generation's checkpoints
// hold, the graph version they were written at, and each stripe's replay
// start. A nil builder means a fresh start: every stripe replays from its
// beginning. Format 1's per-shard checkpoints are folded into one
// builder: those of the newest day, by name — older days are finished
// epochs, dropped as live rotation would have dropped them.
func loadCheckpoints(dc *DurableConfig, cfg Config, man *manifestWire, info *RecoveryInfo) (*graph.Builder, uint64, []wal.Pos) {
	if man.Format == ManifestFormatVersion {
		b, version, pos := loadCheckpointPair(
			filepath.Join(dc.genDir, checkpointFile),
			filepath.Join(dc.genDir, checkpointPrevFile),
			dc, cfg, info, man.Shards)
		if b == nil {
			pos = make([]wal.Pos, man.Shards)
		}
		return b, version, pos
	}
	shards := make([]*graph.Builder, man.Shards)
	pos := make([]wal.Pos, man.Shards)
	var version uint64
	for s := range shards {
		b, v, p := loadCheckpointPair(
			filepath.Join(dc.genDir, shardCheckpointFile(s)),
			filepath.Join(dc.genDir, shardCheckpointPrevFile(s)),
			dc, cfg, info, 1)
		if b != nil {
			shards[s], pos[s], version = b, p[0], max(version, v)
		}
	}
	var day *graph.Builder
	for _, sb := range shards {
		if sb != nil && (day == nil || sb.Day() > day.Day()) {
			day = graph.NewBuilder(cfg.Network, sb.Day(), cfg.Suffixes)
		}
	}
	if day == nil {
		return nil, 0, pos
	}
	for _, sb := range shards {
		if sb == nil || sb.Day() != day.Day() {
			continue
		}
		g := sb.Build()
		for m := int32(0); m < int32(g.NumMachines()); m++ {
			for _, d := range g.DomainsOf(m) {
				day.AddQuery(g.MachineID(m), g.DomainName(d))
			}
		}
		for d := int32(0); d < int32(g.NumDomains()); d++ {
			day.SetDomainIPs(g.DomainName(d), g.DomainIPs(d))
		}
	}
	// A snapshot folds the edges and flags their domains queried, which
	// the activity re-mark reads.
	day.Snapshot()
	return day, version, pos
}

// loadCheckpointPair tries the current then the previous checkpoint
// file, returning the restored builder, its graph version, and the
// stripes' replay positions (stripes of them). A nil builder means no
// checkpoint could be read.
func loadCheckpointPair(cur, prev string, dc *DurableConfig, cfg Config, info *RecoveryInfo, stripes int) (*graph.Builder, uint64, []wal.Pos) {
	b, version, pos, err := readCheckpoint(cur, cfg, stripes)
	if err == nil {
		info.CheckpointLoaded = true
		return b, version, pos
	}
	discarded := !errors.Is(err, os.ErrNotExist)
	if discarded {
		// The newest checkpoint existed but was torn or corrupt. Delete
		// it so the next checkpointOnce does not rotate a known-bad file
		// over the previous generation — that rename would destroy the
		// only proven-good checkpoint before the newly written current
		// one has ever been validated. Best effort: if the remove fails
		// the file simply stays and the old (weaker) behavior applies.
		inc(dc.m.CheckpointFallbacks)
		os.Remove(cur)
		info.UsedFallback = true
	}
	b, version, pos, err = readCheckpoint(prev, cfg, stripes)
	if err != nil {
		return nil, 0, nil
	}
	info.CheckpointLoaded = true
	return b, version, pos
}

// readCheckpoint decodes and validates one checkpoint file holding the
// positions of stripes stripes (format 1: one).
func readCheckpoint(path string, cfg Config, stripes int) (*graph.Builder, uint64, []wal.Pos, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	defer f.Close()
	var wire checkpointWire
	if err := gob.NewDecoder(f).Decode(&wire); err != nil {
		return nil, 0, nil, fmt.Errorf("ingest: decode checkpoint %s: %w", path, err)
	}
	pos := wire.Stripes
	if wire.Version == 1 {
		pos = []wal.Pos{{Segment: wire.WALSegment, Offset: wire.WALOffset}}
	} else if wire.Version != CheckpointFormatVersion {
		return nil, 0, nil, fmt.Errorf("ingest: checkpoint %s: version %d, this build reads 1 and %d",
			path, wire.Version, CheckpointFormatVersion)
	}
	if len(pos) != stripes {
		return nil, 0, nil, fmt.Errorf("ingest: checkpoint %s: %d stripe positions, the layout has %d stripes", path, len(pos), stripes)
	}
	if crc32.Checksum(wire.Snapshot, checkpointCRC) != wire.CRC {
		return nil, 0, nil, fmt.Errorf("ingest: checkpoint %s: snapshot checksum mismatch", path)
	}
	b, err := graph.DecodeSnapshot(bytes.NewReader(wire.Snapshot), cfg.Suffixes)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("ingest: checkpoint %s: %w", path, err)
	}
	return b, wire.GraphVersion, pos, nil
}

// replayStripes opens the n stripes of the current generation and
// re-applies every intact record from each one's position, a goroutine
// per stripe, through the live apply path under the replay rules
// (epoch.replay): stripe s stages into shard s mod Workers, the epoch
// rotates as it would live, and OnRotate is not re-fired, so its delivery
// is at-most-once across crashes (DESIGN §8). WAL appends are off (no
// stripe is attached yet). Intact records that fail to parse are counted
// and skipped. A stripe that cannot be opened or read fails the replay,
// every stripe closed: a shorter prefix would lose acknowledged records.
func (in *Ingester) replayStripes(dc *DurableConfig, n int, pos []wal.Pos, info *RecoveryInfo) ([]*wal.Log, error) {
	in.ep.Load().replay = true
	defer func() { in.ep.Load().replay = false }()
	type stripe struct {
		log            *wal.Log
		events, failed int
		err            error
	}
	stripes := make([]stripe, n)
	var wg sync.WaitGroup
	for s := range stripes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stripes[s]
			if st.log, st.err = openShardWAL(dc, s); st.err != nil {
				return
			}
			var nodes symNodes
			var batch []logio.Event
			err := st.log.Replay(pos[s], func(_ wal.Pos, payload []byte) error {
				batch = batch[:0]
				if perr := logio.ReadEvents(bytes.NewReader(payload), func(e logio.Event) error {
					batch = append(batch, e)
					return nil
				}); perr != nil {
					st.failed++
					inc(dc.m.ReplayErrors)
				}
				if len(batch) > 0 {
					in.applyEvents(batch, &nodes, s%len(in.shards), nil)
					st.events += len(batch)
					addN(dc.m.ReplayedEvents, int64(len(batch)))
				}
				return nil
			})
			if err != nil {
				st.err = fmt.Errorf("ingest: replay wal stripe %d: %w", s, err)
			}
		}()
	}
	wg.Wait()

	logs := make([]*wal.Log, n)
	var errs []error
	for s, st := range stripes {
		logs[s] = st.log
		errs = append(errs, st.err)
		info.ReplayedEvents += st.events
		info.ReplayErrors += st.failed
	}
	if err := errors.Join(errs...); err != nil {
		closeAll(logs)
		return nil, err
	}
	return logs, nil
}

// openShardWAL opens one stripe of the current generation.
func openShardWAL(dc *DurableConfig, s int) (*wal.Log, error) {
	l, err := wal.Open(filepath.Join(dc.genDir, shardWALDir(s)), wal.Options{
		SegmentBytes: dc.SegmentBytes,
		SyncEvery:    dc.SyncEvery,
		Metrics:      &dc.m.WAL,
		Hooks:        dc.WALHooks,
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: open wal stripe %d: %w", s, err)
	}
	return l, nil
}

func closeAll(logs []*wal.Log) {
	for _, l := range logs {
		if l != nil {
			l.Close()
		}
	}
}

// attachStripes hands the shards their WAL stripes; from here on every
// applied event is logged.
func (in *Ingester) attachStripes(logs []*wal.Log) {
	for s, sh := range in.shards {
		sh.mu.Lock()
		sh.wal = logs[s]
		sh.mu.Unlock()
	}
	in.hasWAL = true
}

// writeGeneration writes layout generation gen at the ingester's shard
// count: empty stripes, attached to the shards, and — when withCheckpoint
// — a checkpoint of the day builder at the stripes' start; the manifest
// flips to the generation as the final, atomic commit step. A crash before
// the flip leaves the previous generation live and this one an orphan for
// the next open to sweep.
func (in *Ingester) writeGeneration(dc *DurableConfig, gen uint64, withCheckpoint bool) error {
	dc.genDir = filepath.Join(dc.Dir, genDirName(gen))
	if err := os.MkdirAll(dc.genDir, 0o755); err != nil {
		return err
	}
	logs := make([]*wal.Log, len(in.shards))
	for s := range logs {
		l, err := openShardWAL(dc, s)
		if err != nil {
			closeAll(logs[:s])
			return err
		}
		logs[s] = l
	}
	in.attachStripes(logs)
	if withCheckpoint {
		// Persist the recovered state before the manifest commits to it:
		// after the flip, the old generation's files are gone and this
		// checkpoint is the only copy.
		if err := in.checkpointOnce(dc); err != nil {
			return err
		}
	} else {
		dc.lastPos = make([]wal.Pos, len(logs))
		for s, l := range logs {
			dc.lastPos[s] = l.End()
		}
	}
	return writeManifest(dc.Dir, manifestWire{Format: ManifestFormatVersion, Shards: len(in.shards), Gen: gen})
}

// startDurability arms Checkpoint, the final checkpoint at Shutdown and
// the periodic sync and checkpoint loop.
func (in *Ingester) startDurability(dc *DurableConfig) {
	in.durable = dc
	in.durStop = make(chan struct{})
	in.durWG.Add(1)
	go in.durabilityLoop(dc)
}

// writeCheckpoint encodes the day builder's snapshot with every stripe's
// position and A/B-rotates it into place.
func writeCheckpoint(dc *DurableConfig, g *graph.Graph, version uint64, pos []wal.Pos) error {
	var snap bytes.Buffer
	if err := graph.EncodeSnapshot(&snap, g); err != nil {
		return err
	}
	wire := checkpointWire{
		Version:      CheckpointFormatVersion,
		GraphVersion: version,
		Day:          g.Day(),
		Stripes:      pos,
		CRC:          crc32.Checksum(snap.Bytes(), checkpointCRC),
		Snapshot:     snap.Bytes(),
	}
	cur := filepath.Join(dc.genDir, checkpointFile)
	prev := filepath.Join(dc.genDir, checkpointPrevFile)
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, prev); err != nil {
			return err
		}
	}
	return core.WriteAtomic(cur, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(wire)
	})
}

// Checkpoint durably persists the day's graph and the stripe positions
// it covers, then reclaims stripe segments older than the previous
// checkpoint. OpenDurable runs this periodically and at Shutdown; tests
// and operators may force one.
func (in *Ingester) Checkpoint() error {
	if in.durable == nil {
		return ErrNotDurable
	}
	return in.checkpoint(in.durable)
}

func (in *Ingester) checkpoint(dc *DurableConfig) error {
	err := in.checkpointOnce(dc)
	if err != nil {
		inc(dc.m.CheckpointFailures)
	} else {
		inc(dc.m.Checkpoints)
		setGauge(dc.m.LastCheckpointUnix, time.Now().Unix())
	}
	return err
}

func (in *Ingester) checkpointOnce(dc *DurableConfig) error {
	// Serialize whole checkpoints: the rename dance and lastPos tracking
	// assume one writer at a time (the periodic loop and a forced
	// Checkpoint may otherwise overlap).
	in.ckptMu.Lock()
	defer in.ckptMu.Unlock()
	// The checkpoint is the snapshot of a fold, whose stripe positions
	// were read under the same locks as the stages it took. It is not
	// labeled and not cached: a fold that took anything moved the version
	// past Snapshot's cache. It is stamped with the version read after
	// the swaps, which covers every event it took.
	in.snapMu.Lock()
	in.epochMu.RLock()
	taken, pos := in.takeStages()
	version := in.version.Load()
	g := in.foldSnapshot(taken)
	in.epochMu.RUnlock()
	in.snapMu.Unlock()

	for _, sh := range in.shards {
		if err := sh.wal.Sync(); err != nil {
			return err
		}
	}
	if err := writeCheckpoint(dc, g, version, pos); err != nil {
		return err
	}
	// Reclaim only up to the PREVIOUS checkpoint's positions: if this one
	// later turns out corrupt, the fallback file still has every stripe
	// record it needs.
	for s, sh := range in.shards {
		if dc.lastPos != nil {
			if _, err := sh.wal.TruncateBefore(dc.lastPos[s]); err != nil {
				return err
			}
		}
	}
	dc.lastPos = pos
	return nil
}

// durabilityLoop drives periodic WAL syncs and checkpoints until
// Shutdown closes durStop.
func (in *Ingester) durabilityLoop(dc *DurableConfig) {
	defer in.durWG.Done()
	syncT := time.NewTicker(dc.SyncInterval)
	defer syncT.Stop()
	ckptT := time.NewTicker(dc.CheckpointEvery)
	defer ckptT.Stop()
	for {
		select {
		case <-in.durStop:
			return
		case <-syncT.C:
			for _, sh := range in.shards {
				sh.wal.Sync()
			}
		case <-ckptT.C:
			in.checkpoint(dc)
		}
	}
}
