package ingest

import (
	"sync"
	"time"

	"segugio/internal/graph"
	"segugio/internal/obs"
	"segugio/internal/wal"
)

// epoch is one day of the live graph and its single owner. The Ingester
// keeps the live epoch in an atomic pointer that only rotate swaps, under
// epochMu's write lock, so Day() reads it without a lock and a rotation
// replaces the day's whole state at once: nothing is cleared in place.
// A retired epoch, which rotate hands to OnRotate and keeps for
// SnapshotSince, holds only final, version and prepared — no builder, so
// a day waiting for its handover does not pin its edge runs.
type epoch struct {
	// builder is the day's one graph, and builder.Day() the only stored
	// day. Workers intern into its name table under their shard locks; its
	// fold side (Fold, Snapshot) is guarded by snapMu plus
	// epochMu.R, or by epochMu.W (rotation).
	builder *graph.Builder
	// queried[s] has a bit per day-builder domain id shard s has seen
	// queried today, so a domain's activity mark runs once per shard and
	// day. Guarded by shard s's lock.
	queried [][]uint64
	// replay marks startup recovery, which re-applies WAL records the live
	// stream already counted, acknowledged and handed to hooks: replay
	// counts no event, shard metric or rotation, acks no watermark, fires
	// no rotation hook, and marks an event older than the epoch as
	// activity on its own day instead of counting it stale. replayStripes
	// sets it on the live epoch and rotate passes it on; no source attaches
	// before recovery ends, so no live event applies under it.
	replay bool
	// snap caches the newest snapshot, at snapVersion. Guarded by snapMu.
	snap        *graph.Graph
	snapVersion uint64
	// final is a retired epoch's last graph, at a version of its own;
	// prepared runs PrepareSnapshot on it once, for whichever of the
	// rotating worker and a SnapshotSince caller gets there first.
	final    *graph.Graph
	version  uint64
	prepared sync.Once
}

func (e *epoch) day() int { return e.builder.Day() }

// firstQuery reports whether day-builder domain d is unmarked in a
// shard's queried bitmap q, and marks it. Callers hold the shard's lock.
func firstQuery(q *[]uint64, d int32) bool {
	w, bit := int(d>>6), uint64(1)<<(d&63)
	for w >= len(*q) {
		*q = append(*q, 0)
	}
	if (*q)[w]&bit != 0 {
		return false
	}
	(*q)[w] |= bit
	return true
}

// prepare runs hook once on a retired epoch's final graph.
func (e *epoch) prepare(hook func(*graph.Graph)) {
	if hook != nil {
		e.prepared.Do(func() { hook(e.final) })
	}
}

// rotate retires the live epoch and starts newDay: every shard's stage is
// folded into the day builder, whose snapshot is the retired epoch's
// final graph, and a new epoch with a fresh builder goes live. It returns
// the retired epoch for the rotation hooks, or nil when another worker
// already rotated to (or past) newDay or the epoch replays.
func (in *Ingester) rotate(newDay int) *epoch {
	in.epochMu.Lock()
	defer in.epochMu.Unlock()
	old := in.ep.Load()
	if newDay <= old.day() {
		return nil
	}
	// The day's last graph is one more snapshot of the day builder, at a
	// version of its own, so a pass that last looked at an earlier
	// version of this day is handed it (SnapshotSince).
	v := in.version.Add(1)
	taken, _ := in.takeStages()
	done := &epoch{final: in.foldSnapshot(taken), version: v}
	b := graph.NewBuilder(in.cfg.Network, newDay, in.cfg.Suffixes)
	in.ep.Store(&epoch{builder: b, queried: make([][]uint64, len(in.shards)), replay: old.replay})
	in.folded.Store(0)
	// The new day's snapshots carry versions past the finished day's.
	in.version.Add(1)
	if in.cfg.Activity != nil {
		in.cfg.Activity.Trim(newDay - in.cfg.ActivityKeepDays)
	}
	if old.replay {
		return nil
	}
	inc(in.m.Rotations)
	// The retired epoch is kept for SnapshotSince (replacing an older one
	// nobody got through) — but only if anyone ever calls it: a daemon
	// that never classifies would carry yesterday's graph for nothing.
	if in.sinceCallers.Load() {
		in.finished.Store(done)
	}
	return done
}

// takeStages swaps every shard's stage for an empty one, shard by shard
// under that shard's lock — O(1) — and reads the stripe's WAL end there,
// so pos and the stages agree by construction; no worker waits for
// another shard's batch. Callers hold snapMu and epochMu for read, or
// epochMu for write.
func (in *Ingester) takeStages() ([]graph.Stage, []wal.Pos) {
	var pos []wal.Pos
	taken := make([]graph.Stage, len(in.shards))
	for s, sh := range in.shards {
		sh.mu.Lock()
		taken[s], sh.stage = sh.stage, graph.Stage{}
		sh.staged.Store(0)
		if sh.wal != nil {
			pos = append(pos, sh.wal.End())
		}
		sh.mu.Unlock()
	}
	return taken, pos
}

// foldSnapshot folds taken stages into the live epoch's builder — appends,
// the one radix sort and dedup, without shard locks — and snapshots it.
// Every id a taken stage holds was interned before its swap, so the
// snapshot covers it. Callers hold what takeStages needs.
func (in *Ingester) foldSnapshot(taken []graph.Stage) *graph.Graph {
	b := in.ep.Load().builder
	b.Fold(taken)
	g := b.Snapshot()
	in.folded.Store(int64(g.NumEdges()))
	return g
}

// Day returns the current epoch day, without waiting for a rotation in
// progress (it answers the finishing day until the rotation completes).
func (in *Ingester) Day() int { return in.ep.Load().day() }

// Snapshot returns an immutable view of the live graph plus its version,
// read before the stages are taken, so the graph holds every event at or
// below it: every shard's stage is folded into the day builder, which
// snapshots (see foldSnapshot). Snapshots are cached in the epoch:
// repeated calls without intervening ingestion return the same graph. The
// PrepareSnapshot hook has already run on the returned graph.
func (in *Ingester) Snapshot() (*graph.Graph, uint64) {
	in.snapMu.Lock()
	defer in.snapMu.Unlock()

	in.epochMu.RLock()
	e, v := in.ep.Load(), in.version.Load()
	if e.snap != nil && v == e.snapVersion {
		in.epochMu.RUnlock()
		in.cfg.Watermarks.Ack(obs.WatermarkSnapshot, obs.WatermarkSourceAll, e.day())
		return e.snap, v
	}
	start := time.Now()
	taken, _ := in.takeStages()
	g := in.foldSnapshot(taken)
	in.epochMu.RUnlock()

	if in.cfg.PrepareSnapshot != nil {
		in.cfg.PrepareSnapshot(g)
	}
	if in.m.SnapshotSeconds != nil {
		in.m.SnapshotSeconds.Observe(time.Since(start).Seconds())
	}
	e.snap, e.snapVersion = g, v
	in.cfg.Watermarks.Ack(obs.WatermarkSnapshot, obs.WatermarkSourceAll, e.day())
	return g, v
}

// SnapshotSince is Snapshot for a caller that classifies every snapshot
// it is handed and passes back the version of the last one it completed.
// After a rotation, a call whose since predates the retired epoch's final
// graph is handed that graph instead of the live one, so what was applied
// between the day's last pass and its rotation is still classified and
// audited under its day. The handover repeats until a call arrives with
// since at or past that graph's version — only a completed pass brings
// one; a pass that aborted or found the graph unlabeled comes back with
// its old since — and that call gets the live epoch. Snapshot never
// returns a retired epoch. The retired epoch is looked up after the live
// snapshot is taken, so a rotation that lands while the call waits for
// the epoch lock is handed over, not skipped.
//
// The Delta is always the zero Delta: every pass classifies its snapshot
// whole. It stays in the signature for the end-to-end benchmark harness
// (bench/trace.go), which reads it, until that harness is next changed.
func (in *Ingester) SnapshotSince(since uint64) (*graph.Graph, uint64, graph.Delta) {
	in.sinceCallers.Store(true)
	g, v := in.Snapshot()
	f := in.finished.Load()
	if f != nil && since >= f.version {
		// The caller has processed it; a rotation that replaced it since
		// keeps its own.
		in.finished.CompareAndSwap(f, nil)
		f = nil
	}
	if f != nil {
		f.prepare(in.cfg.PrepareSnapshot)
		return f.final, f.version, graph.Delta{}
	}
	return g, v, graph.Delta{}
}
