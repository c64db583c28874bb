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
// Durability is sharded the same way the live graph is: each graph shard
// owns a WAL stripe and an A/B checkpoint pair, and a MANIFEST.json at
// the state-dir root records the shard count and the current layout
// generation. The invariant the layer maintains is per shard and simple,
// because stripe appends happen inside shardApply's critical section:
// under a shard's lock, its builder state and its WAL end position
// always agree. A checkpoint round therefore captures each shard's
// (snapshot, WAL position) atomically; recovery loads every shard's
// newest intact checkpoint and replays only that stripe's records at or
// after its position. Corrupt trailing stripe records are truncated by
// wal.Open; a corrupt or torn shard checkpoint falls back to its
// previous generation, which still works because stripe segments are
// only reclaimed up to the position of the checkpoint one generation
// back.
//
// When the shard count (-workers) changes across a restart, recovery
// rehashes: the old partition is loaded in full — checkpoints plus WAL
// replay — then every edge and resolution is re-routed through
// graph.ShardOf into the new partition, and the redistributed state is
// written as a fresh layout generation (new checkpoints, empty stripes)
// before the old one is deleted. The manifest flips to the new generation
// atomically, so a crash mid-migration simply re-runs it; generation
// directories the manifest does not name are orphans and are swept at the
// next open.

// State-directory layout names: the manifest at the root names the live
// per-generation directory.
const (
	manifestFile = "MANIFEST.json"
	genDirPrefix = "gen-"
)

// CheckpointFormatVersion is the current checkpoint file format. The
// manifest, not the checkpoint, describes the partition.
const CheckpointFormatVersion = 1

// ManifestFormatVersion is the current MANIFEST.json format.
const ManifestFormatVersion = 1

// ErrNotDurable is returned by Checkpoint on an ingester built with New
// instead of OpenDurable.
var ErrNotDurable = errors.New("ingest: ingester has no durability layer")

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

type checkpointWire struct {
	Version      int
	GraphVersion uint64
	Day          int
	WALSegment   uint64
	WALOffset    int64
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
	// CheckpointFallbacks counts shard recoveries that had to discard the
	// newest checkpoint and use the previous generation.
	CheckpointFallbacks *metrics.Counter
	// Checkpoints / CheckpointFailures count checkpoint rounds (one round
	// persists every shard).
	Checkpoints        *metrics.Counter
	CheckpointFailures *metrics.Counter
	// LastCheckpointUnix is the wall-clock second of the newest durable
	// checkpoint round.
	LastCheckpointUnix *metrics.Gauge
}

// DurableConfig parameterizes the durability layer.
type DurableConfig struct {
	// Dir is the state directory: MANIFEST.json lives at its root, the
	// per-shard checkpoints and WAL stripes under the generation
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
	lastPos []wal.Pos      // per-shard position of the previous checkpoint generation
}

// RecoveryInfo reports what startup recovery found and rebuilt.
type RecoveryInfo struct {
	// CheckpointLoaded is true when any shard checkpoint decoded
	// successfully.
	CheckpointLoaded bool
	// UsedFallback is true when at least one shard's newest checkpoint
	// was corrupt and its previous generation was used instead.
	UsedFallback bool
	// Rehashed is true when the on-disk shard count differed from the
	// requested one and the state was redistributed through graph.ShardOf.
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
	// WALStart is the position shard 0's replay began from.
	WALStart wal.Pos
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
// recovers every shard's newest intact checkpoint from dc.Dir, replays
// each WAL stripe's tail on top, and returns an ingester that logs every
// applied event to its shard's stripe and checkpoints periodically. If
// the on-disk shard count differs from cfg.Workers the recovered
// state is rehashed into the requested partition first. The
// RecoveryInfo describes what was rebuilt (a fresh start on an empty
// directory is not an error). A directory holding the pre-manifest
// layout is refused with an error naming the files, untouched.
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

	var (
		builders []*graph.Builder
		logs     []*wal.Log
		version  uint64
	)
	if man == nil {
		// Fresh state directory: create generation 1 directly at the
		// requested shard count.
		builders, logs, err = createGeneration(&dc, cfg, nil, 1, 0)
		if err != nil {
			return nil, nil, err
		}
	} else {
		old, stripes, v, pos, err := loadGeneration(&dc, cfg, man, info)
		if err != nil {
			return nil, nil, err
		}
		version = v
		if man.Shards == cfg.Workers {
			// Same partition: the replayed stripes stay open for new appends.
			dc.lastPos = pos
			builders, logs = old, stripes
		} else {
			// Shard count changed: redistribute the loaded state through
			// graph.ShardOf into a fresh generation.
			closeAll(stripes)
			builders, logs, err = createGeneration(&dc, cfg, old, man.Gen+1, v)
			if err != nil {
				return nil, nil, err
			}
			info.Rehashed = true
			os.RemoveAll(filepath.Join(dc.Dir, genDirName(man.Gen)))
		}
		if len(pos) > 0 {
			info.WALStart = pos[0]
		}
	}

	alignShardDays(builders, cfg)
	info.Day = builders[0].Day()
	for _, b := range builders {
		info.Machines += b.NumMachines()
	}

	cfg.restoredShards = builders
	cfg.restoredVersion = version
	cfg.walShards = logs
	cfg.durable = &dc
	in := New(cfg)
	info.Domains = int(in.domainN.Load())
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
	if man.Format != ManifestFormatVersion {
		return nil, fmt.Errorf("ingest: manifest format %d, this build reads %d", man.Format, ManifestFormatVersion)
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

// loadGeneration recovers every shard of the manifest's generation, one
// goroutine per stripe: checkpoint (with A/B fallback) plus WAL replay.
// Stripes are independent by the graph.ShardOf invariants and share only
// the activity log and the atomic metrics. It returns the builders, the
// open stripes, the restored version (max checkpoint version plus total
// replayed events: monotonicity is all it promises) and each replay's
// start. A stripe that cannot be opened or read fails the load, every
// stripe closed: recovering without it would drop its acknowledged tail.
func loadGeneration(dc *DurableConfig, cfg Config, man *manifestWire, info *RecoveryInfo) ([]*graph.Builder, []*wal.Log, uint64, []wal.Pos, error) {
	dc.genDir = filepath.Join(dc.Dir, genDirName(man.Gen))
	type stripe struct {
		b       *graph.Builder
		log     *wal.Log
		version uint64
		pos     wal.Pos
		info    RecoveryInfo
		err     error
	}
	stripes := make([]stripe, man.Shards)
	var wg sync.WaitGroup
	for s := range stripes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stripes[s]
			st.b, st.version, st.pos = loadCheckpointPair(
				filepath.Join(dc.genDir, shardCheckpointFile(s)),
				filepath.Join(dc.genDir, shardCheckpointPrevFile(s)),
				dc, cfg, &st.info)
			if st.b == nil {
				st.b = graph.NewBuilder(cfg.Network, cfg.StartDay, cfg.Suffixes)
			}
			if st.log, st.err = openShardWAL(dc, s); st.err != nil {
				return
			}
			if st.b, st.err = replayShardWAL(st.log, st.pos, st.b, cfg, dc, &st.info); st.err != nil {
				st.err = fmt.Errorf("ingest: replay wal stripe %d: %w", s, st.err)
			}
		}()
	}
	wg.Wait()

	builders := make([]*graph.Builder, man.Shards)
	logs := make([]*wal.Log, man.Shards)
	positions := make([]wal.Pos, man.Shards)
	var (
		maxVersion uint64
		errs       []error
	)
	for s, st := range stripes {
		builders[s], logs[s], positions[s] = st.b, st.log, st.pos
		errs = append(errs, st.err)
		maxVersion = max(maxVersion, st.version)
		info.CheckpointLoaded = info.CheckpointLoaded || st.info.CheckpointLoaded
		info.UsedFallback = info.UsedFallback || st.info.UsedFallback
		info.ReplayedEvents += st.info.ReplayedEvents
		info.ReplayErrors += st.info.ReplayErrors
	}
	if err := errors.Join(errs...); err != nil {
		closeAll(logs)
		return nil, nil, 0, nil, err
	}
	return builders, logs, maxVersion + uint64(info.ReplayedEvents), positions, nil
}

// loadCheckpointPair tries the current then the previous checkpoint
// file, returning the restored builder, its graph version, and the WAL
// replay position. A nil builder means fresh start for this shard.
func loadCheckpointPair(cur, prev string, dc *DurableConfig, cfg Config, info *RecoveryInfo) (*graph.Builder, uint64, wal.Pos) {
	b, version, pos, err := readCheckpoint(cur, cfg)
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
	b, version, pos, err = readCheckpoint(prev, cfg)
	if err != nil {
		return nil, 0, wal.Pos{}
	}
	info.CheckpointLoaded = true
	return b, version, pos
}

// readCheckpoint decodes and validates one checkpoint file.
func readCheckpoint(path string, cfg Config) (*graph.Builder, uint64, wal.Pos, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, wal.Pos{}, err
	}
	defer f.Close()
	var wire checkpointWire
	if err := gob.NewDecoder(f).Decode(&wire); err != nil {
		return nil, 0, wal.Pos{}, fmt.Errorf("ingest: decode checkpoint %s: %w", path, err)
	}
	if wire.Version != CheckpointFormatVersion {
		return nil, 0, wal.Pos{}, fmt.Errorf("ingest: checkpoint %s: version %d, this build reads %d",
			path, wire.Version, CheckpointFormatVersion)
	}
	if crc32.Checksum(wire.Snapshot, checkpointCRC) != wire.CRC {
		return nil, 0, wal.Pos{}, fmt.Errorf("ingest: checkpoint %s: snapshot checksum mismatch", path)
	}
	b, err := graph.DecodeSnapshot(bytes.NewReader(wire.Snapshot), cfg.Suffixes)
	if err != nil {
		return nil, 0, wal.Pos{}, fmt.Errorf("ingest: checkpoint %s: %w", path, err)
	}
	return b, wire.GraphVersion, wal.Pos{Segment: wire.WALSegment, Offset: wire.WALOffset}, nil
}

// replayShardWAL re-applies every intact record of one stripe at or
// after pos to the shard's builder, honoring the same day-rotation and
// staleness rules as live ingestion. Rotation hooks are not re-fired for
// day boundaries found in the tail, which makes OnRotate delivery
// at-most-once across crashes: a rotating event is logged inside
// shardApply but the hook only runs after the locks are released, so a
// crash in that window durably records the rotation yet never delivers
// the finalized epoch on either side of the crash. Consumers needing
// exactly-once epoch handoff must persist their own handoff state.
// Records that fail to parse despite an intact CRC are counted and
// skipped. A read error is returned: the stripe's unread records are
// acknowledged, so recovering a shorter prefix would lose them.
func replayShardWAL(l *wal.Log, pos wal.Pos, b *graph.Builder, cfg Config, dc *DurableConfig, info *RecoveryInfo) (*graph.Builder, error) {
	day := b.Day()
	replayErr := l.Replay(pos, func(_ wal.Pos, payload []byte) error {
		apply := func(e logio.Event) error {
			if e.Day < day {
				return nil
			}
			if e.Day > day {
				b = graph.NewBuilder(cfg.Network, e.Day, cfg.Suffixes)
				day = e.Day
			}
			switch e.Kind {
			case logio.EventQuery:
				if e2ld, first := b.AddQuery(e.Machine, e.Domain); first && cfg.Activity != nil {
					markActive(cfg.Activity, day, e.Domain, e2ld)
				}
			case logio.EventResolution:
				for _, ip := range e.IPs {
					b.AddResolution(e.Domain, ip)
				}
			}
			info.ReplayedEvents++
			inc(dc.m.ReplayedEvents)
			return nil
		}
		if perr := logio.ReadEvents(bytes.NewReader(payload), apply); perr != nil {
			info.ReplayErrors++
			inc(dc.m.ReplayErrors)
		}
		return nil
	})
	return b, replayErr
}

// alignShardDays moves every shard to the newest day any shard reached.
// Stripes replay independently, so a shard whose stripe ended before a
// day boundary can come back on an older day than its peers; its content
// belongs to an epoch the newer shards already finalized, so it restarts
// empty on the shared day — exactly what live rotation would have done.
func alignShardDays(builders []*graph.Builder, cfg Config) {
	maxDay := builders[0].Day()
	for _, b := range builders[1:] {
		if d := b.Day(); d > maxDay {
			maxDay = d
		}
	}
	for s, b := range builders {
		if b.Day() < maxDay {
			builders[s] = graph.NewBuilder(cfg.Network, maxDay, cfg.Suffixes)
		}
	}
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

// createGeneration writes a new layout generation at cfg.Workers
// shards: old state (if any) is rehashed through graph.ShardOf into
// fresh builders, each shard gets an initial checkpoint and an empty WAL
// stripe, and the manifest flips to the new generation as the final,
// atomic commit step. A crash before the manifest write leaves the
// previous generation live and the half-built one an orphan for the next
// open to sweep.
func createGeneration(dc *DurableConfig, cfg Config, old []*graph.Builder, gen uint64, version uint64) ([]*graph.Builder, []*wal.Log, error) {
	dc.genDir = filepath.Join(dc.Dir, genDirName(gen))
	shards := cfg.Workers
	day := cfg.StartDay
	if len(old) > 0 {
		alignShardDays(old, cfg)
		day = old[0].Day()
	}
	builders := make([]*graph.Builder, shards)
	for s := range builders {
		builders[s] = graph.NewBuilder(cfg.Network, day, cfg.Suffixes)
		// The checkpoint snapshot below must not trim the fresh log: the
		// ingester's seed drain into the merged builder still needs it.
		builders[s].BeginDrain()
	}
	for _, ob := range old {
		// Rehash-on-replay: route every recovered edge by machine and
		// every resolution by domain, the same invariants live dispatch
		// uses.
		g := ob.Build()
		for m := int32(0); m < int32(g.NumMachines()); m++ {
			id := g.MachineID(m)
			dst := builders[graph.ShardOf(id, shards)]
			for _, d := range g.DomainsOf(m) {
				dst.AddQuery(id, g.DomainName(d))
			}
		}
		for d := int32(0); d < int32(g.NumDomains()); d++ {
			if ips := g.DomainIPs(d); len(ips) > 0 {
				name := g.DomainName(d)
				builders[graph.ShardOf(name, shards)].SetDomainIPs(name, ips)
			}
		}
	}
	if err := os.MkdirAll(dc.genDir, 0o755); err != nil {
		return nil, nil, err
	}
	logs := make([]*wal.Log, shards)
	dc.lastPos = make([]wal.Pos, shards)
	for s := range logs {
		l, err := openShardWAL(dc, s)
		if err != nil {
			closeAll(logs[:s])
			return nil, nil, err
		}
		logs[s] = l
		dc.lastPos[s] = l.End()
		if len(old) == 0 {
			// Fresh directory: nothing to persist, and writing an empty
			// checkpoint would make a later WAL-only recovery misreport
			// CheckpointLoaded.
			continue
		}
		// Persist the redistributed state before the manifest commits to
		// it: after the flip, the old generation's files are gone and
		// these checkpoints are the only copy.
		g := builders[s].Snapshot()
		if err := writeShardCheckpoint(dc, s, g, version, l.End()); err != nil {
			closeAll(logs[:s+1])
			return nil, nil, err
		}
	}
	if err := writeManifest(dc.Dir, manifestWire{Format: ManifestFormatVersion, Shards: shards, Gen: gen}); err != nil {
		closeAll(logs)
		return nil, nil, err
	}
	return builders, logs, nil
}

// writeShardCheckpoint encodes one shard's snapshot and A/B-rotates it
// into place.
func writeShardCheckpoint(dc *DurableConfig, s int, g *graph.Graph, version uint64, pos wal.Pos) error {
	var snap bytes.Buffer
	if err := graph.EncodeSnapshot(&snap, g); err != nil {
		return err
	}
	wire := checkpointWire{
		Version:      CheckpointFormatVersion,
		GraphVersion: version,
		Day:          g.Day(),
		WALSegment:   pos.Segment,
		WALOffset:    pos.Offset,
		CRC:          crc32.Checksum(snap.Bytes(), checkpointCRC),
		Snapshot:     snap.Bytes(),
	}
	cur := filepath.Join(dc.genDir, shardCheckpointFile(s))
	prev := filepath.Join(dc.genDir, shardCheckpointPrevFile(s))
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, prev); err != nil {
			return err
		}
	}
	return core.WriteAtomic(cur, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(wire)
	})
}

// Checkpoint durably persists every shard's graph and the stripe
// position it covers, then reclaims stripe segments older than the
// previous checkpoint generation. OpenDurable runs this periodically and
// at Shutdown; tests and operators may force one.
func (in *Ingester) Checkpoint() error {
	if in.cfg.durable == nil {
		return ErrNotDurable
	}
	return in.checkpoint(in.cfg.durable)
}

func (in *Ingester) checkpoint(dc *DurableConfig) error {
	// Serialize whole checkpoint rounds: the rename dance and lastPos
	// tracking assume one writer at a time (the periodic loop and a
	// forced Checkpoint may otherwise overlap).
	in.ckptMu.Lock()
	defer in.ckptMu.Unlock()
	err := in.checkpointOnce(dc)
	if err != nil {
		inc(dc.m.CheckpointFailures)
	} else {
		inc(dc.m.Checkpoints)
		if dc.m.LastCheckpointUnix != nil {
			dc.m.LastCheckpointUnix.SetInt(time.Now().Unix())
		}
	}
	return err
}

func (in *Ingester) checkpointOnce(dc *DurableConfig) error {
	// Each shard's builder snapshot and stripe position move together
	// under its lock — this is the whole per-shard consistency argument.
	// The epoch read lock pins one day across the round, so every shard
	// checkpoint in it belongs to the same epoch. Shard snapshots do not
	// consume the merged builder's dirty baseline, so — unlike the
	// pre-sharding code — no delta-ring entry is recorded here.
	type capture struct {
		g   *graph.Graph
		pos wal.Pos
	}
	in.epochMu.RLock()
	version := in.version.Load()
	caps := make([]capture, len(in.shards))
	for s, sh := range in.shards {
		sh.mu.Lock()
		caps[s] = capture{g: sh.builder.Snapshot(), pos: sh.wal.End()}
		sh.mu.Unlock()
	}
	in.epochMu.RUnlock()

	for s, sh := range in.shards {
		if err := sh.wal.Sync(); err != nil {
			return err
		}
		if err := writeShardCheckpoint(dc, s, caps[s].g, version, caps[s].pos); err != nil {
			return err
		}
		// Reclaim only up to the PREVIOUS generation's position: if this
		// checkpoint later turns out corrupt, the fallback file still has
		// every stripe record it needs.
		if _, err := sh.wal.TruncateBefore(dc.lastPos[s]); err != nil {
			return err
		}
		dc.lastPos[s] = caps[s].pos
	}
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
