package ingest

import (
	"context"
	"fmt"
	"time"

	"segugio/internal/activity"
	"segugio/internal/health"
	"segugio/internal/logio"
	"segugio/internal/metrics"
	"segugio/internal/obs"
	"segugio/internal/wal"
)

// batchSize bounds how many queued events a worker applies per lock
// acquisition, amortizing the per-batch bookkeeping.
const batchSize = 512

// worker drains one shard until shutdown. A panic anywhere in the
// drain path (apply, a rotation hook, a metrics callback) is recovered
// and counted, and the worker resumes draining: one poisonous batch
// must not take the whole shard — let alone the daemon — down.
func (in *Ingester) worker(shard int) {
	defer in.workers.Done()
	buf := make([]logio.Event, batchSize)
	for !in.drainShard(shard, buf) {
	}
}

// drainShard sweeps the shard's rings, blocking on the doorbell when
// everything is empty, and returns true once shutdown has begun and the
// rings are drained. It returns false when a recovered panic aborted
// the loop; the caller restarts it.
func (in *Ingester) drainShard(shard int, buf []logio.Event) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			inc(in.m.Panics)
		}
	}()
	for {
		if in.sweepShard(shard, buf) > 0 {
			continue
		}
		select {
		case <-in.wake[shard]:
		case <-in.stopWorkers:
			// Producers are gone (Shutdown waits for them before closing
			// stopWorkers): once a sweep comes up empty, so is the shard.
			if in.sweepShard(shard, buf) == 0 {
				return true
			}
		}
	}
}

// sweepShard makes one pass over the shard's rings: serving drop-oldest
// eviction requests, applying queued events in batches, and retiring
// rings whose producer closed and whose queue drained. Returns how many
// events it handled (applied or shed) — zero means the shard was idle.
func (in *Ingester) sweepShard(shard int, buf []logio.Event) (handled int) {
	rings := *in.shardRings[shard].Load()
	retire := false
	for _, r := range rings {
		for {
			// Serve the producer's eviction request only while the ring is
			// actually full; a request that drained on its own is stale.
			// Checked before every batch, not once per sweep: a producer
			// that refills the ring as fast as it drains keeps the worker
			// in this loop for the whole burst, and its requests with it.
			if ev := r.evict.Load(); ev > 0 {
				if r.full() {
					n := r.shedOldest(ev)
					if n > 0 {
						addN(in.m.EventsShed[ShedDropOldest], int64(n))
						r.evict.Add(^uint64(n - 1)) // subtract n
						handled += n
					}
				} else {
					r.evict.Store(0)
				}
			}
			n := r.consume(buf)
			if n == 0 {
				break
			}
			in.apply(buf[:n], r, shard)
			handled += n
		}
		if r.isClosed() && r.empty() {
			retire = true
		}
	}
	if retire {
		in.retireRings(shard)
	}
	return handled
}

// walFlushBytes caps one WAL record: a batch whose serialized lines
// exceed it is split across several records. The flush triggers after an
// appended line crosses the threshold, so a record can reach
// walFlushBytes + one maximum-size event line — the constant must keep
// that sum under wal.MaxRecordBytes (asserted in tests) or batches
// holding large resolution lines would be rejected by wal.Append.
const walFlushBytes = 256 << 10

// apply folds a batch of events into the live epoch, rotating when a
// later day appears. The batch is cut into day segments: each segment
// applies under the epoch read lock plus its shard's lock, and a
// later-day boundary rotates the epoch under the write lock before the
// next segment runs. Each batch is one graph_apply trace; the WAL flushes
// inside it appear as wal_append child spans. r is the ring the batch was
// swept from — it names the producer kind and owns the stream's symbol
// cache — and shard the shard it belongs to, whose stage it feeds.
func (in *Ingester) apply(batch []logio.Event, r *eventRing, shard int) {
	if in.cfg.ApplyHook != nil {
		in.cfg.ApplyHook()
	}
	_, span := in.cfg.Tracer.StartSpan(context.Background(), obs.StageGraphApply)
	applied, rotations, walOK := in.applyEvents(batch, &r.nodes, shard, span)
	span.SetAttr("events", len(batch))
	span.SetAttr("applied", applied)
	if len(rotations) > 0 {
		span.SetAttr("rotations", len(rotations))
	}
	span.End()

	if wm := in.cfg.Watermarks; wm != nil {
		maxDay := batch[0].Day
		for _, e := range batch[1:] {
			if e.Day > maxDay {
				maxDay = e.Day
			}
		}
		wm.Ack(obs.WatermarkGraphApply, r.source, maxDay)
		// The WAL ack only advances when every flush in the batch landed;
		// a failed append leaves the wal_append watermark behind, which is
		// exactly the durability lag the gauge should show.
		if in.hasWAL && walOK {
			wm.Ack(obs.WatermarkWALAppend, r.source, maxDay)
		}
	}

	addN(in.m.EventsIngested, applied)
	in.publishGauges()
	for _, f := range rotations {
		// Retired epochs get the same preparation as served snapshots
		// (label application), so rotation hooks can classify them.
		f.prepare(in.cfg.PrepareSnapshot)
		if in.cfg.OnRotate != nil {
			in.cfg.OnRotate(f.final.Day(), f.final)
		}
	}
}

// applyEvents runs a batch's day segments on shard, rotating the epoch
// between them, and returns the events applied, the epochs it retired
// and whether every WAL append landed.
func (in *Ingester) applyEvents(batch []logio.Event, nodes *symNodes, shard int, span *obs.Span) (applied int64, rotations []*epoch, walOK bool) {
	walOK = true
	for off := 0; off < len(batch); {
		n, segApplied, segWALOK := in.applySegment(batch[off:], shard, nodes, span)
		off += n
		applied += segApplied
		walOK = walOK && segWALOK
		if off < len(batch) {
			// batch[off] belongs to a later day than the epoch the segment
			// ran under: rotate forward. rotate no-ops (and the next
			// segment picks the event up) when another worker crossed the
			// boundary first. A multi-day jump still causes one rotation.
			if f := in.rotate(batch[off].Day); f != nil {
				rotations = append(rotations, f)
			}
		}
	}
	return applied, rotations, walOK
}

// applySegment applies the longest batch prefix that belongs to the live
// epoch (events at or before the epoch day) and reports how many events
// it consumed; a shorter-than-batch return means the next event starts a
// later day and the caller must rotate.
func (in *Ingester) applySegment(events []logio.Event, shard int, nodes *symNodes, span *obs.Span) (n int, applied int64, walOK bool) {
	in.epochMu.RLock()
	defer in.epochMu.RUnlock()
	ep := in.ep.Load()
	day := ep.day()
	n = len(events)
	for i := range events {
		if events[i].Day > day {
			n = i
			break
		}
	}
	if n == 0 {
		return 0, 0, true
	}
	applied, walOK = in.shardApply(ep, shard, nodes, events[:n], span)
	return n, applied, walOK
}

// markActive records that domain, and with it its e2LD, was queried on day.
func markActive(act *activity.Log, day int, domain, e2ld string) {
	act.MarkDomain(day, domain)
	act.MarkE2LD(day, e2ld)
}

// shardApply is one shard's apply critical section: names interned in
// the day builder, ids staged, first-query activity marks and the
// shard's WAL stripe move together under the shard lock. The unlock is
// deferred so a panic inside an append cannot leave the shard mutex held
// when the worker's recovery kicks in. Callers hold epochMu for read, and
// ep is the live epoch they loaded under it. walOK reports whether every
// stripe append succeeded.
//
// Names reach the stage as day-builder node ids. nodes — the cache of the
// ring the events came from — answers for every name the segb1 stream
// numbered and this ring has applied before; any other name (first sight
// of a symbol on this ring, a literal, every event of a text, tail or
// trace_dns source, whose symbols are 0) takes the name table's intern
// and fills its slot: one loop, with a cache in front of it.
func (in *Ingester) shardApply(ep *epoch, shard int, nodes *symNodes, events []logio.Event, span *obs.Span) (applied int64, walOK bool) {
	sh := in.shards[shard]
	start := time.Now() // before the lock: contention is part of apply latency
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.walBuf = sh.walBuf[:0]
	sh.walBatchErr = false
	b, act, day, seen := ep.builder, in.cfg.Activity, ep.day(), &ep.queried[shard]
	var queries int64
	nodes.bind(day)
	for i := range events {
		e := &events[i]
		if e.Day < day {
			// Stale, or on replay activity on its own day (see epoch.replay).
			if !ep.replay {
				inc(in.m.EventsStale)
			} else if act != nil && e.Kind == logio.EventQuery {
				markActive(act, e.Day, e.Domain, in.cfg.Suffixes.E2LD(e.Domain))
			}
			continue
		}
		switch e.Kind {
		case logio.EventQuery:
			d := nodes.domainID(b, e.DomainSym, e.Domain)
			sh.stage.AddEdge(nodes.machineID(b, e.MachineSym, e.Machine), d)
			queries++
			// A mark is idempotent per (day, name): only the domain's first
			// query in this shard's day pays for it.
			if act != nil && firstQuery(seen, d) {
				markActive(act, day, e.Domain, b.E2LD(d))
			}
		case logio.EventResolution:
			d := nodes.domainID(b, e.DomainSym, e.Domain)
			for _, ip := range e.IPs {
				sh.stage.AddAddress(d, ip)
			}
		}
		if sh.wal != nil {
			in.appendShardWAL(sh, e, span)
		}
		applied++
	}
	if sh.wal != nil {
		in.flushShardWAL(sh, span)
	}
	if applied > 0 {
		// Inside the shard lock, after the appends: a fold that wins the
		// lock next takes every event this version accounts for.
		in.version.Add(1)
		sh.staged.Add(queries)
		if !ep.replay {
			addN(sh.events, applied)
			if sh.applySeconds != nil {
				sh.applySeconds.Observe(time.Since(start).Seconds())
			}
			in.cfg.Watermarks.Ack(obs.WatermarkShardApply, sh.wmSource, day)
		}
	}
	return applied, !sh.walBatchErr
}

// publishGauges refreshes the graph size gauges.
func (in *Ingester) publishGauges() {
	b := in.ep.Load().builder
	setGauge(in.m.GraphMachines, int64(b.NumMachines()))
	setGauge(in.m.GraphDomains, int64(b.NumDomains()))
	n := in.folded.Load()
	for _, sh := range in.shards {
		n += sh.staged.Load()
	}
	setGauge(in.m.GraphObservations, n)
}

func setGauge(g *metrics.Gauge, v int64) {
	if g != nil {
		g.SetInt(v)
	}
}

// appendShardWAL renders one event line straight into the shard's WAL
// record being built, cutting a record whenever the buffer crosses
// walFlushBytes. Callers hold the shard lock.
func (in *Ingester) appendShardWAL(sh *graphShard, e *logio.Event, span *obs.Span) {
	before := len(sh.walBuf)
	sh.walBuf = logio.AppendEvent(sh.walBuf, *e)
	// If this line pushed the buffered record past the WAL's cap, cut the
	// record before it: wal.Append rejects oversized records wholesale,
	// which would silently void durability for every event already in
	// the buffer. Unreachable while walFlushBytes + logio.MaxLineBytes
	// fits in a record (asserted in tests), but cheap insurance against
	// drift.
	if before > 0 && len(sh.walBuf) > wal.MaxRecordBytes {
		line := sh.walBuf[before:]
		sh.walBuf = sh.walBuf[:before]
		in.flushShardWAL(sh, span)
		sh.walBuf = append(sh.walBuf, line...) // moves the line down to offset 0
	}
	if len(sh.walBuf) >= walFlushBytes {
		in.flushShardWAL(sh, span)
	}
}

// flushShardWAL appends the shard's buffered event lines as one record
// on its WAL stripe. Append failures are counted, not fatal: segugiod
// stays available at reduced durability rather than dying on a full
// disk. The append shows up as a wal_append child of the batch's
// graph_apply span. Callers hold the shard lock.
func (in *Ingester) flushShardWAL(sh *graphShard, span *obs.Span) {
	if len(sh.walBuf) == 0 {
		return
	}
	start := time.Now()
	_, err := sh.wal.Append(sh.walBuf)
	took := time.Since(start)
	if err != nil {
		inc(in.m.WALAppendFailures)
		sh.walBatchErr = true
		if h := in.cfg.Health; h != nil {
			h.SetFor(healthSignalWAL, health.Degraded,
				fmt.Sprintf("wal append failed: %v", err), walFaultTTL)
		}
	} else if h := in.cfg.Health; h != nil && took >= slowWALAppend {
		h.SetFor(healthSignalWAL, health.Degraded,
			fmt.Sprintf("wal append took %s", took.Round(time.Millisecond)), walFaultTTL)
	}
	span.RecordChild(obs.StageWALAppend, took)
	sh.walBuf = sh.walBuf[:0]
}
