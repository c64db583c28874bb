package ingest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/logio"
	"segugio/internal/ml"

	"segugio/internal/features"
)

// equivLabelSources builds the label fixture shared by the equivalence
// tests: 10 blacklisted C&C domains on distinct e2LDs and 20 whitelisted
// e2LDs, matching the scale the core training pipeline needs.
func equivLabelSources() (func(day int) graph.LabelSources, *intel.Blacklist, *intel.Whitelist) {
	bl := intel.NewBlacklist()
	for i := 0; i < 10; i++ {
		bl.Add(intel.BlacklistEntry{Domain: fmt.Sprintf("c2.evil%d.net", i), Family: "fam", FirstListed: 0})
	}
	var whitelisted []string
	for i := 0; i < 20; i++ {
		whitelisted = append(whitelisted, fmt.Sprintf("good%d.com", i))
	}
	wl := intel.NewWhitelist(whitelisted)
	return func(day int) graph.LabelSources {
		return graph.LabelSources{Blacklist: bl, Whitelist: wl, AsOf: day}
	}, bl, wl
}

// genEquivEvents is one day of the equivalence stream: infected machines
// querying C&C plus unknown domains, clean machines querying whitelisted
// domains, and resolutions for everything — enough structure for the
// full train/classify pipeline to run on the resulting graph.
func genEquivEvents(day int) []logio.Event {
	var evs []logio.Event
	query := func(machine, domain string) {
		evs = append(evs, logio.Event{Kind: logio.EventQuery, Day: day, Machine: machine, Domain: domain})
	}
	resolve := func(domain string, ip dnsutil.IPv4) {
		evs = append(evs, logio.Event{Kind: logio.EventResolution, Day: day, Domain: domain, IPs: []dnsutil.IPv4{ip}})
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("c2.evil%d.net", i)
		for m := 0; m < 6; m++ {
			query(fmt.Sprintf("inf%02d", (i+m)%12), name)
		}
		resolve(name, dnsutil.IPv4(0x0a000000+uint32(i)))
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("www.good%d.com", i)
		for m := 0; m < 8; m++ {
			query(fmt.Sprintf("clean%02d", (i+m)%25), name)
		}
		resolve(name, dnsutil.IPv4(0x0b000000+uint32(i)))
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("unk.gray%d.org", i)
		for m := 0; m < 5; m++ {
			query(fmt.Sprintf("inf%02d", (i+m)%12), name)
		}
		resolve(name, dnsutil.IPv4(0x0c000000+uint32(i)))
	}
	// Bulk noise: many machines, many domains, deterministic shape, with
	// deliberate duplicates so edge dedup matters.
	for i := 0; i < 2000; i++ {
		query(fmt.Sprintf("bulk%03d", i%211), fmt.Sprintf("h%d.bulkzone%d.example", i%97, i%41))
	}
	return evs
}

// refReplay applies the stream to a single unsharded builder with the
// same day semantics live ingestion uses: stale days dropped, a newer
// day starts a fresh epoch.
func refReplay(network string, startDay int, suffixes *dnsutil.SuffixList, evs []logio.Event) *graph.Builder {
	b := graph.NewBuilder(network, startDay, suffixes)
	day := startDay
	for _, e := range evs {
		if e.Day < day {
			continue
		}
		if e.Day > day {
			b = graph.NewBuilder(network, e.Day, suffixes)
			day = e.Day
		}
		switch e.Kind {
		case logio.EventQuery:
			b.AddQuery(e.Machine, e.Domain)
		case logio.EventResolution:
			for _, ip := range e.IPs {
				b.AddResolution(e.Domain, ip)
			}
		}
	}
	return b
}

// markEveryQuery is the reference activity semantics: one mark per query
// event, for the domain and for its e2LD. Ingestion marks only a
// domain's first query per shard and day (and re-marks a restored day at
// startup); since a mark is idempotent per (day, name), the logs must
// come out identical.
func markEveryQuery(act *activity.Log, suffixes *dnsutil.SuffixList, evs []logio.Event) {
	for _, e := range evs {
		if e.Kind == logio.EventQuery {
			act.MarkDomain(e.Day, e.Domain)
			act.MarkE2LD(e.Day, suffixes.E2LD(e.Domain))
		}
	}
}

// requireActivityEquivalent compares two activity logs on every name the
// stream mentions (queried or merely resolved) over days [from, to].
func requireActivityEquivalent(t *testing.T, want, got *activity.Log, suffixes *dnsutil.SuffixList, evs []logio.Event, from, to int) {
	t.Helper()
	seen := make(map[string]struct{})
	for _, e := range evs {
		if _, dup := seen[e.Domain]; dup {
			continue
		}
		seen[e.Domain] = struct{}{}
		name, e2ld := e.Domain, suffixes.E2LD(e.Domain)
		if w, g := want.DomainActiveDays(name, from, to), got.DomainActiveDays(name, from, to); w != g {
			t.Fatalf("DomainActiveDays(%s, %d, %d) = %d, reference %d", name, from, to, g, w)
		}
		if w, g := want.E2LDActiveDays(e2ld, from, to), got.E2LDActiveDays(e2ld, from, to); w != g {
			t.Fatalf("E2LDActiveDays(%s, %d, %d) = %d, reference %d", e2ld, from, to, g, w)
		}
		for day := from; day <= to; day++ {
			if w, g := want.DomainStreak(name, day), got.DomainStreak(name, day); w != g {
				t.Fatalf("DomainStreak(%s, %d) = %d, reference %d", name, day, g, w)
			}
			if w, g := want.E2LDStreak(e2ld, day), got.E2LDStreak(e2ld, day); w != g {
				t.Fatalf("E2LDStreak(%s, %d) = %d, reference %d", e2ld, day, g, w)
			}
		}
		wd, wok := want.FirstSeenDay(name)
		gd, gok := got.FirstSeenDay(name)
		if wd != gd || wok != gok {
			t.Fatalf("FirstSeenDay(%s) = (%d, %v), reference (%d, %v)", name, gd, gok, wd, wok)
		}
	}
	if w, g := want.Domains(), got.Domains(); w != g {
		t.Fatalf("activity log tracks %d domains, reference %d", g, w)
	}
}

// requireGraphsEquivalent compares two labeled graphs by name — intern
// order differs between a sharded merge and a sequential build, so
// indices are meaningless across the two — down to per-domain feature
// vectors and per-machine labels.
func requireGraphsEquivalent(t *testing.T, want, got *graph.Graph, act *activity.Log) {
	t.Helper()
	if want.NumMachines() != got.NumMachines() || want.NumDomains() != got.NumDomains() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("shape differs: want %d/%d/%d machines/domains/edges, got %d/%d/%d",
			want.NumMachines(), want.NumDomains(), want.NumEdges(),
			got.NumMachines(), got.NumDomains(), got.NumEdges())
	}
	exWant, err := features.NewExtractor(want, act, nil, 14)
	if err != nil {
		t.Fatal(err)
	}
	exGot, err := features.NewExtractor(got, act, nil, 14)
	if err != nil {
		t.Fatal(err)
	}
	for wd := int32(0); wd < int32(want.NumDomains()); wd++ {
		name := want.DomainName(wd)
		gd, ok := got.DomainIndex(name)
		if !ok {
			t.Fatalf("domain %s missing from sharded graph", name)
		}
		if wl, gl := want.DomainLabel(wd), got.DomainLabel(gd); wl != gl {
			t.Fatalf("domain %s label %v != %v", name, gl, wl)
		}
		wantIPs := slices.Clone(want.DomainIPs(wd))
		gotIPs := slices.Clone(got.DomainIPs(gd))
		slices.Sort(wantIPs)
		slices.Sort(gotIPs)
		if !slices.Equal(wantIPs, gotIPs) {
			t.Fatalf("domain %s IPs %v != %v", name, gotIPs, wantIPs)
		}
		if wv, gv := exWant.Vector(wd), exGot.Vector(gd); !slices.Equal(wv, gv) {
			t.Fatalf("domain %s feature vector %v != %v", name, gv, wv)
		}
	}
	for wm := int32(0); wm < int32(want.NumMachines()); wm++ {
		id := want.MachineID(wm)
		gm, ok := got.MachineIndex(id)
		if !ok {
			t.Fatalf("machine %s missing from sharded graph", id)
		}
		if wl, gl := want.MachineLabel(wm), got.MachineLabel(gm); wl != gl {
			t.Fatalf("machine %s label %v != %v", id, gl, wl)
		}
	}
}

// requireClassifyAllEquivalent trains one detector on the reference graph
// and runs classify-all over both graphs (each with its own activity
// log): identical detections, domain by domain.
func requireClassifyAllEquivalent(t *testing.T, want *graph.Graph, wantAct *activity.Log, got *graph.Graph, gotAct *activity.Log) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.NewModel = func(benign, malware int) ml.Model {
		return ml.NewLogisticRegression(ml.LogisticRegressionConfig{Seed: 7})
	}
	det, _, err := core.Train(cfg, core.TrainInput{Graph: want, Activity: wantAct})
	if err != nil {
		t.Fatal(err)
	}
	classifyAll := func(g *graph.Graph, act *activity.Log) []core.Detection {
		dets, _, err := det.Classify(core.ClassifyInput{Graph: g, Activity: act})
		if err != nil {
			t.Fatal(err)
		}
		dets = slices.Clone(dets)
		sort.Slice(dets, func(i, j int) bool { return dets[i].Domain < dets[j].Domain })
		for i := range dets {
			dets[i].ID = 0 // node ids follow intern order, which the two builds need not share
		}
		return dets
	}
	wantDets, gotDets := classifyAll(want, wantAct), classifyAll(got, gotAct)
	if len(wantDets) == 0 {
		t.Fatal("classify-all found nothing; fixture too weak to prove equivalence")
	}
	if !slices.Equal(wantDets, gotDets) {
		t.Fatalf("classify-all differs:\ngot  %v\nwant %v", gotDets, wantDets)
	}
}

// segb1Conn opens one long-lived segb1 connection into in: send encodes a
// batch with the connection's one encoder (so its symbol table spans the
// batches) and flushes it; hangUp ends the stream and waits for Consume.
func segb1Conn(t *testing.T, in *Ingester) (send func([]logio.Event), hangUp func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- in.Consume(pr) }()
	enc := logio.NewEventEncoder(pw)
	send = func(evs []logio.Event) {
		t.Helper()
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	hangUp = func() {
		pw.Close()
		if err := <-done; err != nil {
			t.Errorf("segb1 connection: %v", err)
		}
	}
	return send, hangUp
}

// TestShardedEquivalence is the acceptance test for the sharded graph
// backend: over the same stream, the sharded ingester's merged snapshot
// must be feature-for-feature and detection-for-detection identical to a
// single unsharded builder, before a rotation, across it (the finished
// day handed over) and after it. Run under -race it also
// exercises the concurrent shard-apply path, at a power-of-two and an odd
// shard count. Throughout, the activity log the ingester marks on first
// queries must equal a reference marked on every query event; the durable
// case ends with an unclean death and checks that a WAL-replay reopen
// rebuilds the same log from nothing.
//
// Every case runs twice: fed as text, a connection per batch (names reach
// the builders as strings), and fed as segb1 on one connection for the
// whole run (names reach them through the ring's symbol tables, which
// the day-6 rotation must rebind: day 6 reuses day 5's symbols without
// redefining them).
func TestShardedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		workers int
		durable bool
		segb1   bool
	}{
		{workers: 4},
		{workers: 3},
		{workers: 3, durable: true},
		{workers: 4, segb1: true},
		{workers: 3, segb1: true},
		{workers: 3, durable: true, segb1: true},
	} {
		// N workers are N shards; the name spells out both.
		name := fmt.Sprintf("workers=%d_shards=%d_durable=%v", tc.workers, tc.workers, tc.durable)
		if tc.segb1 {
			name += "_wire=segb1"
		}
		t.Run(name, func(t *testing.T) {
			suffixes := dnsutil.DefaultSuffixList()
			src, _, _ := equivLabelSources()
			act, refAct := activity.NewLog(), activity.NewLog()
			m, _ := newMetrics()
			icfg := Config{
				Network:  "equiv",
				StartDay: 5,
				Workers:  tc.workers,
				Suffixes: suffixes,
				Activity: act,
				Metrics:  m,
				PrepareSnapshot: func(g *graph.Graph) {
					g.ApplyLabels(src(g.Day()))
				},
			}
			dc := DurableConfig{Dir: t.TempDir(), SyncEvery: 1, CheckpointEvery: time.Hour}
			var in *Ingester
			if tc.durable {
				var err error
				if in, _, err = OpenDurable(icfg, dc); err != nil {
					t.Fatal(err)
				}
				// No Shutdown: the case ends in an unclean death.
			} else {
				in = New(icfg)
				defer in.Shutdown()
			}
			if in.NumShards() != tc.workers {
				t.Fatalf("NumShards = %d, want %d", in.NumShards(), tc.workers)
			}
			feed := feed
			if tc.segb1 {
				send, hangUp := segb1Conn(t, in)
				defer hangUp() // before Shutdown, which waits for Consume to return
				feed = func(t *testing.T, _ *Ingester, m *Metrics, evs []logio.Event) {
					t.Helper()
					before := m.EventsIngested.Value()
					send(evs)
					waitFor(t, "events applied", func() bool {
						return m.EventsIngested.Value() == before+int64(len(evs))
					})
				}
			}

			day5 := genEquivEvents(5)
			feed(t, in, m, day5)
			got5, v5 := in.Snapshot()
			markEveryQuery(refAct, suffixes, day5)
			requireActivityEquivalent(t, refAct, act, suffixes, day5, 5, 6)

			ref5 := refReplay("equiv", 5, suffixes, day5)
			want5 := ref5.Snapshot()
			want5.ApplyLabels(src(5))
			requireGraphsEquivalent(t, want5, got5, act)

			requireClassifyAllEquivalent(t, want5, act, got5, act)

			// Brand-new edges after a pass, on every shard: the finished day
			// below must hold them.
			var deltaEvs []logio.Event
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("delta%d.fresh.example", i)
				deltaEvs = append(deltaEvs, logio.Event{
					Kind: logio.EventQuery, Day: 5,
					Machine: fmt.Sprintf("freshm%02d", i), Domain: name,
				})
			}
			feed(t, in, m, deltaEvs)
			markEveryQuery(refAct, suffixes, deltaEvs)
			_, v6, _ := in.SnapshotSince(v5)
			if v6 <= v5 {
				t.Fatalf("version did not advance: %d -> %d", v5, v6)
			}

			// Epoch rotation: day 6 arrives. A reader still on day 5 gets the
			// finished day once — a graph that still equals the replay — and
			// then the post-rotation graph, which must again match the
			// single-builder replay.
			day6 := genEquivEvents(6)
			feed(t, in, m, day6)
			last5, vLast5, _ := in.SnapshotSince(v6)
			if last5.Day() != 5 {
				t.Fatalf("first call after the rotation: day %d; want day 5's last graph", last5.Day())
			}
			wantLast5 := refReplay("equiv", 5, suffixes, slices.Concat(day5, deltaEvs)).Snapshot()
			wantLast5.ApplyLabels(src(5))
			requireGraphsEquivalent(t, wantLast5, last5, act)
			got6, _, _ := in.SnapshotSince(vLast5)
			ref6 := refReplay("equiv", 6, suffixes, day6)
			want6 := ref6.Snapshot()
			want6.ApplyLabels(src(6))
			requireGraphsEquivalent(t, want6, got6, act)
			markEveryQuery(refAct, suffixes, day6)
			all := slices.Concat(day5, deltaEvs, day6)
			requireActivityEquivalent(t, refAct, act, suffixes, all, 5, 6)

			if !tc.durable {
				return
			}
			// Unclean death, no checkpoint ever taken: a new process with an
			// empty activity log replays both days from the WAL stripes and
			// must mark exactly what live ingestion marked.
			act2 := activity.NewLog()
			cfg2 := icfg
			cfg2.Activity = act2
			m2, _ := newMetrics()
			cfg2.Metrics = m2
			in2, info, err := OpenDurable(cfg2, dc)
			if err != nil {
				t.Fatal(err)
			}
			defer in2.Shutdown()
			if info.CheckpointLoaded || info.ReplayedEvents != len(all) {
				t.Fatalf("reopen info = %+v, want a WAL-only replay of %d events", info, len(all))
			}
			requireActivityEquivalent(t, refAct, act2, suffixes, all, 5, 6)
			re6, _ := in2.Snapshot()
			requireGraphsEquivalent(t, want6, re6, act2)
		})
	}
}

// TestCheckpointBesideIngestEquivalence pins what no benchmark workload
// runs: checkpoints and snapshots taken while several producers ingest,
// across a day rotation. At quiescence the merged snapshot and the
// activity log must equal the batch build over the same events — and so
// must the state a new process recovers from the checkpoints and WAL
// tail an unclean death leaves behind.
func TestCheckpointBesideIngestEquivalence(t *testing.T) {
	suffixes := dnsutil.DefaultSuffixList()
	src, _, _ := equivLabelSources()
	act, refAct := activity.NewLog(), activity.NewLog()
	m, _ := newMetrics()
	dm := newDurableMetrics()
	icfg := Config{
		Network: "equiv", StartDay: 5, Workers: 3, Suffixes: suffixes, Activity: act, Metrics: m,
		// Small rings under backpressure: producers, workers, checkpoints
		// and snapshots interleave in many small batches, and none is lost.
		QueueDepth: 64, ShedPolicy: ShedBlock,
		PrepareSnapshot: func(g *graph.Graph) { g.ApplyLabels(src(g.Day())) },
	}
	dc := DurableConfig{Dir: t.TempDir(), SyncEvery: 1, CheckpointEvery: time.Hour, Metrics: dm}
	in, _, err := OpenDurable(icfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	// No Shutdown: the test ends in an unclean death.

	stop := make(chan struct{})
	var loops sync.WaitGroup
	loop := func(step func()) {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				step()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	loop(func() {
		if err := in.Checkpoint(); err != nil {
			t.Errorf("checkpoint beside ingest: %v", err)
		}
	})
	var since uint64
	loop(func() { _, since, _ = in.SnapshotSince(since) })

	// feedConcurrently deals evs out to four producers, one Consume each,
	// and waits until every event is applied.
	feedConcurrently := func(evs []logio.Event) {
		t.Helper()
		before := m.EventsIngested.Value()
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			var part []logio.Event
			for i := p; i < len(evs); i += 4 {
				part = append(part, evs[i])
			}
			wire := stream(t, part)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := in.Consume(strings.NewReader(wire)); err != nil {
					t.Errorf("consume: %v", err)
				}
			}()
		}
		wg.Wait()
		waitFor(t, "events applied", func() bool {
			return m.EventsIngested.Value() == before+int64(len(evs))
		})
	}
	day5, day6 := genEquivEvents(5), genEquivEvents(6)
	feedConcurrently(day5)
	feedConcurrently(day6) // rotates while the loops run
	close(stop)
	loops.Wait()
	if m.EventsDropped.Value() != 0 || m.EventsStale.Value() != 0 || m.WALAppendFailures.Value() != 0 {
		t.Fatalf("dropped/stale/WAL failures = %d/%d/%d, want a lossless run",
			m.EventsDropped.Value(), m.EventsStale.Value(), m.WALAppendFailures.Value())
	}
	// A tail after the last checkpoint, so recovery needs both halves.
	tail := []logio.Event{
		{Kind: logio.EventQuery, Day: 6, Machine: "inf00", Domain: "tail.after-ckpt.example"},
		{Kind: logio.EventResolution, Day: 6, Domain: "tail.after-ckpt.example", IPs: []dnsutil.IPv4{0x0d000001}},
	}
	feed(t, in, m, tail)

	all := slices.Concat(day5, day6, tail)
	markEveryQuery(refAct, suffixes, all)
	want := refReplay("equiv", 5, suffixes, all).Build()
	want.ApplyLabels(src(6))
	got, _ := in.Snapshot()
	requireGraphsEquivalent(t, want, got, act)
	requireActivityEquivalent(t, refAct, act, suffixes, all, 5, 6)

	// Unclean death; a new process recovers from disk alone.
	act2 := activity.NewLog()
	cfg2 := icfg
	cfg2.Activity = act2
	cfg2.Metrics, _ = newMetrics()
	in2, info, err := OpenDurable(cfg2, dc)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Shutdown()
	if !info.CheckpointLoaded || info.ReplayedEvents < len(tail) || info.ReplayErrors != 0 {
		t.Fatalf("recovery info = %+v, want checkpoints plus a WAL tail", info)
	}
	re, _ := in2.Snapshot()
	requireGraphsEquivalent(t, want, re, act)
	// Which day-5 records follow the last checkpoint depends on timing, so
	// only the recovered day's marks are comparable.
	for _, e := range all {
		if e.Kind == logio.EventQuery && e.Day == 6 &&
			(act2.DomainActiveDays(e.Domain, 6, 6) != 1 || act2.E2LDActiveDays(suffixes.E2LD(e.Domain), 6, 6) != 1) {
			t.Fatalf("recovered activity log lost day 6 for %s", e.Domain)
		}
	}
}

// TestDurableRehashOnShardCountChange kills a 4-shard durable ingester
// (checkpoint plus WAL tail on disk) and restarts it with 2 shards: the
// recovered state must be rehashed into the new partition with nothing
// lost, and the new layout must itself survive a further unclean death.
func TestDurableRehashOnShardCountChange(t *testing.T) {
	dir := t.TempDir()
	in, m, info := openShards(t, dir, 4)
	if info.Rehashed || info.Shards != 4 {
		t.Fatalf("fresh 4-shard info = %+v", info)
	}
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

	in2, m2, info2 := openShards(t, dir, 2)
	if !info2.Rehashed || info2.Shards != 2 {
		t.Fatalf("flipped-shards info = %+v, want rehash to 2", info2)
	}
	if !info2.CheckpointLoaded {
		t.Fatalf("info = %+v, want the 4-shard checkpoints loaded", info2)
	}
	if info2.ReplayedEvents != len(tail) {
		t.Fatalf("replayed %d, want the %d tail events", info2.ReplayedEvents, len(tail))
	}
	if in2.NumShards() != 2 {
		t.Fatalf("recovered ingester has %d shards", in2.NumShards())
	}
	got, _ := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("rehashed shape %v, want %v", graphShape(got), graphShape(want))
	}

	// The rehashed layout keeps working: more durable events, another
	// unclean death, and a same-shard-count recovery with no rehash.
	extra := genDurableEvents(5, 200)
	for i := range extra {
		extra[i].Machine = fmt.Sprintf("post%03d", i%19)
	}
	feed(t, in2, m2, extra)
	want2, _ := in2.Snapshot()

	in3, _, info3 := openShards(t, dir, 2)
	defer in3.Shutdown()
	if info3.Rehashed {
		t.Fatalf("same shard count must not rehash: %+v", info3)
	}
	got2, _ := in3.Snapshot()
	if graphShape(got2) != graphShape(want2) {
		t.Fatalf("post-rehash recovery shape %v, want %v", graphShape(got2), graphShape(want2))
	}
}

// TestDurableLegacyLayoutRefused plants the pre-manifest state layout
// (root-level checkpoint pair and WAL, no MANIFEST.json): OpenDurable must
// fail with an error naming the files — not start an empty graph beside
// them — and leave the directory exactly as it found it.
func TestDurableLegacyLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	planted := []string{"checkpoint.gob", "checkpoint.prev.gob", "wal/wal-00000001.seg"}
	if err := os.Mkdir(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range planted {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old "+name), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m, _ := newMetrics()
	cfg, dc := durableCfg(dir, m, newDurableMetrics())
	in, _, err := OpenDurable(cfg, dc)
	if err == nil {
		in.Shutdown()
		t.Fatal("OpenDurable accepted a pre-manifest state directory")
	}
	for _, name := range []string{"checkpoint.gob", "checkpoint.prev.gob", "wal"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
	for _, name := range planted {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != "old "+name {
			t.Fatalf("%s after the refusal = %q, %v; want it untouched", name, got, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		t.Fatalf("refused open left %v in the state directory, want only the 3 planted entries", entries)
	}
}

// TestDurableRehashSurvivesLogTrim pins a recovery hole: the rehash
// path checkpoints the redistributed shard builders before the
// ingester's seed drain, and that snapshot used to let the builder trim
// its fresh log once a shard crossed the log-trim threshold — the
// merged view after reopen came back empty while the shard builders
// (and the graph gauges) still reported the full state. The fixture is
// sized so every post-rehash shard crosses the threshold in both the
// edge log and the address log.
func TestDurableRehashSurvivesLogTrim(t *testing.T) {
	dir := t.TempDir()
	m, _ := newMetrics()
	cfg, dc := durableCfg(dir, m, newDurableMetrics())
	cfg.Workers = 4
	// The fixture is ~15k events in one burst: size the rings to take it
	// losslessly, and skip per-record fsync — the recovery under test is
	// checkpoint-based, so WAL-tail durability is irrelevant here.
	cfg.QueueDepth = 32768
	dc.SyncEvery = 4096
	in, _, err := OpenDurable(cfg, dc)
	if err != nil {
		t.Fatal(err)
	}
	var evs []logio.Event
	for i := 0; i < 12000; i++ {
		evs = append(evs, logio.Event{
			Kind: logio.EventQuery, Day: 5,
			Machine: fmt.Sprintf("trim-m%03d", i%300),
			Domain:  fmt.Sprintf("trim-d%d.net", i/300),
		})
	}
	for i := 0; i < 2500; i++ {
		evs = append(evs, logio.Event{
			Kind: logio.EventResolution, Day: 5,
			Domain: fmt.Sprintf("trim-r%d.net", i),
			IPs: []dnsutil.IPv4{
				dnsutil.IPv4(0x0a000000 + uint32(i)),
				dnsutil.IPv4(0x0b000000 + uint32(i)),
				dnsutil.IPv4(0x0c000000 + uint32(i)),
				dnsutil.IPv4(0x0d000000 + uint32(i)),
			},
		})
	}
	feed(t, in, m, evs)
	if err := in.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, _ := in.Snapshot()
	// Unclean death: no Shutdown.

	in2, _, info2 := openShards(t, dir, 2)
	defer in2.Shutdown()
	if !info2.Rehashed || info2.Shards != 2 {
		t.Fatalf("info = %+v, want rehash to 2 shards", info2)
	}
	got, _ := in2.Snapshot()
	if graphShape(got) != graphShape(want) {
		t.Fatalf("merged snapshot after rehash is %v, want %v (seed drain lost the trimmed log)", graphShape(got), graphShape(want))
	}
	for _, name := range []string{"trim-d0.net", "trim-d39.net"} {
		d, ok := got.DomainIndex(name)
		if !ok {
			t.Fatalf("domain %s missing from merged snapshot", name)
		}
		if n := got.DomainDegree(d); n != 300 {
			t.Fatalf("domain %s has %d querying machines, want 300", name, n)
		}
	}
	if d, ok := got.DomainIndex("trim-r2499.net"); !ok || len(got.DomainIPs(d)) != 4 {
		t.Fatalf("resolutions for trim-r2499.net lost in rehash")
	}
}
