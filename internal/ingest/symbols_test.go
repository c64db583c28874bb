package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"testing"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/graph"
	"segugio/internal/logio"
)

// symRun is what one ingester made of a set of connections: the labeled
// merged snapshot, the activity log it marked, and the dirty set of the
// second batch of connections against a snapshot taken after the first.
type symRun struct {
	g     *graph.Graph
	act   *activity.Log
	dirty []string
}

// runConns feeds base, then after a snapshot delta, into a fresh 3-shard
// ingester; each element is one connection's whole wire stream, and the
// connections of a batch run concurrently. nBase and nDelta are the
// events the batches carry.
func runConns(t *testing.T, base [][]byte, nBase int, delta [][]byte, nDelta int) symRun {
	t.Helper()
	src, _, _ := equivLabelSources()
	m, _ := newMetrics()
	act := activity.NewLog()
	in := New(Config{
		Network: "equiv", StartDay: 5, Workers: 3, Activity: act, Metrics: m,
		QueueDepth: 64, ShedPolicy: ShedBlock, // small rings: the batch overflow path runs too
		PrepareSnapshot: func(g *graph.Graph) { g.ApplyLabels(src(g.Day())) },
	})
	defer in.Shutdown()
	feedAll := func(conns [][]byte, n int) {
		t.Helper()
		before := m.EventsIngested.Value()
		var wg sync.WaitGroup
		for _, wire := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := in.Consume(bytes.NewReader(wire)); err != nil {
					t.Errorf("consume: %v", err)
				}
			}()
		}
		wg.Wait()
		waitFor(t, "events applied", func() bool { return m.EventsIngested.Value() == before+int64(n) })
	}
	feedAll(base, nBase)
	if m.ParseErrors.Value() != 0 || m.EventsStale.Value() != 0 || m.EventsDropped.Value() != 0 {
		t.Fatalf("parse errors/stale/dropped = %d/%d/%d, want a clean lossless run",
			m.ParseErrors.Value(), m.EventsStale.Value(), m.EventsDropped.Value())
	}
	_, v := in.Snapshot()
	feedAll(delta, nDelta)
	g, _, d := in.SnapshotSince(v)
	if !d.Exact {
		t.Fatal("within-day delta is inexact")
	}
	dirty := slices.Clone(d.Domains)
	slices.Sort(dirty)
	return symRun{g: g, act: act, dirty: dirty}
}

// textConn renders events as one text connection.
func textConn(t *testing.T, evs []logio.Event) []byte { return []byte(stream(t, evs)) }

// requireSymbolEquivalence runs the same connections as segb1 and as
// text and holds both to the batch oracle over evs (base then delta, the
// decoded form of every connection concatenated): feature vectors,
// labels, addresses, the activity log, and the delta's dirty set.
func requireSymbolEquivalence(t *testing.T, segb1Base, textBase [][]byte, baseEvs []logio.Event, segb1Delta, textDelta [][]byte, deltaEvs []logio.Event) {
	t.Helper()
	suffixes := dnsutil.DefaultSuffixList()
	src, _, _ := equivLabelSources()
	all := slices.Concat(baseEvs, deltaEvs)

	oracle := refReplay("equiv", 5, suffixes, baseEvs)
	oracle.Snapshot()
	for _, e := range deltaEvs {
		if e.Kind == logio.EventQuery {
			oracle.AddQuery(e.Machine, e.Domain)
		} else {
			oracle.SetDomainIPs(e.Domain, e.IPs)
		}
	}
	wantDirty, exact := dirtyNames(oracle.Snapshot())
	if !exact {
		t.Fatal("oracle delta is inexact")
	}
	slices.Sort(wantDirty)
	want := refReplay("equiv", 5, suffixes, all).Build()
	want.ApplyLabels(src(5))
	wantAct := activity.NewLog()
	markEveryQuery(wantAct, suffixes, all)

	for _, run := range []struct {
		wire string
		got  symRun
	}{
		{"segb1", runConns(t, segb1Base, len(baseEvs), segb1Delta, len(deltaEvs))},
		{"text", runConns(t, textBase, len(baseEvs), textDelta, len(deltaEvs))},
	} {
		requireGraphsEquivalent(t, want, run.got.g, wantAct)
		requireActivityEquivalent(t, wantAct, run.got.act, suffixes, all, 5, 5)
		if !slices.Equal(run.got.dirty, wantDirty) {
			t.Fatalf("%s run: dirty set %v, oracle %v", run.wire, run.got.dirty, wantDirty)
		}
	}
}

// TestSymbolTablesTwoConnectionsNumberNamesDifferently: two concurrent
// segb1 connections mention the same machines and domains but meet them
// in opposite orders, so every shared name has two different symbol ids.
// The tables are per ring, so neither connection's numbering may leak
// into the other's.
func TestSymbolTablesTwoConnectionsNumberNamesDifferently(t *testing.T) {
	day := genEquivEvents(5)
	var a, b []logio.Event
	for i, e := range day {
		if i%2 == 0 {
			a = append(a, e)
		} else {
			b = append(b, e)
		}
	}
	slices.Reverse(b)
	// The delta reuses names both connections already numbered (their
	// slots are warm) and brings new ones.
	var deltaA, deltaB []logio.Event
	for i := 0; i < 6; i++ {
		deltaA = append(deltaA, logio.Event{Kind: logio.EventQuery, Day: 5, Machine: fmt.Sprintf("inf%02d", i), Domain: fmt.Sprintf("new%d.late.example", i)})
		deltaB = append(deltaB, logio.Event{Kind: logio.EventQuery, Day: 5, Machine: fmt.Sprintf("fresh%02d", i), Domain: fmt.Sprintf("unk.gray%d.org", i%4)})
	}
	// A connection per batch, as runConns feeds them — but the delta
	// connections first replay a few base events so their own tables hold
	// old names under new numbers before the new events arrive.
	prefix := day[:40]
	deltaA = slices.Concat(prefix, deltaA)
	deltaB = slices.Concat(slices.Clone(prefix), deltaB)
	slices.Reverse(deltaB[:len(prefix)])
	requireSymbolEquivalence(t,
		[][]byte{binStream(t, a), binStream(t, b)}, [][]byte{textConn(t, a), textConn(t, b)}, slices.Concat(a, b),
		[][]byte{binStream(t, deltaA), binStream(t, deltaB)}, [][]byte{textConn(t, deltaA), textConn(t, deltaB)}, slices.Concat(deltaA, deltaB))
}

// Hand-assembled segb1, for the streams EventEncoder never writes. The
// layout is logio's binary.go package comment.
const (
	wireQuery      = 0x01
	wireResolution = 0x02
)

type wirePayload []byte

func (p *wirePayload) uvarint(v uint64) { *p = binary.AppendUvarint(*p, v) }

func (p *wirePayload) op(op byte, day int) {
	*p = append(*p, op)
	*p = binary.AppendVarint(*p, int64(day))
}

// literal, define and symbol are the three ways a record names a string.
func (p *wirePayload) literal(s string) {
	p.uvarint(0)
	p.uvarint(uint64(len(s)))
	*p = append(*p, s...)
}
func (p *wirePayload) define(s string) {
	p.uvarint(1)
	p.uvarint(uint64(len(s)))
	*p = append(*p, s...)
}
func (p *wirePayload) symbol(id int) { p.uvarint(uint64(id) + 2) }

func (p *wirePayload) ips(ips ...dnsutil.IPv4) {
	p.uvarint(uint64(len(ips)))
	for _, ip := range ips {
		*p = binary.BigEndian.AppendUint32(*p, uint32(ip))
	}
}

// wireStream frames payloads into one segb1 stream.
func wireStream(payloads ...wirePayload) []byte {
	out := []byte(logio.BinaryMagic)
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	}
	return out
}

// TestSymbolTablesMixedReferenceForms names one machine and one domain
// every way the wire allows within a single stream — define, symbol
// reference, literal — interleaved over two frames. All forms must land
// on the same two nodes: the literal takes the string path while the
// symbol's slot is already filled, and must neither miss the node nor
// disturb the slot.
func TestSymbolTablesMixedReferenceForms(t *testing.T) {
	const m0, d0, m1 = "inf00", "mixed.gray0.org", "inf01"
	var f1, f2 wirePayload
	f1.op(wireQuery, 5)
	f1.define(m0) // symbol 0
	f1.define(d0) // symbol 1
	f1.op(wireQuery, 5)
	f1.symbol(0)
	f1.symbol(1)
	f1.op(wireQuery, 5)
	f1.literal(m1)
	f1.literal(d0)
	f1.op(wireResolution, 5)
	f1.literal(d0)
	f1.ips(0x0a000001)
	f2.op(wireQuery, 5)
	f2.define(m1) // symbol 2: a name that so far only came as a literal
	f2.symbol(1)
	f2.op(wireResolution, 5)
	f2.symbol(1)
	f2.ips(0x0a000002)
	f2.op(wireQuery, 5)
	f2.literal(m0)
	f2.symbol(1)
	q := func(m, d string) logio.Event {
		return logio.Event{Kind: logio.EventQuery, Day: 5, Machine: m, Domain: d}
	}
	r := func(d string, ip dnsutil.IPv4) logio.Event {
		return logio.Event{Kind: logio.EventResolution, Day: 5, Domain: d, IPs: []dnsutil.IPv4{ip}}
	}
	evs := []logio.Event{q(m0, d0), q(m0, d0), q(m1, d0), r(d0, 0x0a000001), q(m1, d0), r(d0, 0x0a000002), q(m0, d0)}
	requireSymbolEquivalence(t,
		[][]byte{wireStream(f1, f2)}, [][]byte{textConn(t, evs)}, evs,
		nil, nil, nil)
}

// TestSymbolTablesOneSymbolAsMachineAndDomain uses a single symbol as a
// machine id in one record and as a domain in another. The string is
// upper-case, so the domain use normalizes it: the two uses are two
// different names on two different nodes (and, for a resolution, two
// different routing keys), which one table per use keeps apart.
func TestSymbolTablesOneSymbolAsMachineAndDomain(t *testing.T) {
	const raw, norm, other = "Host-7.Gray0.ORG", "host-7.gray0.org", "inf03"
	var f wirePayload
	f.op(wireQuery, 5)
	f.define(raw)   // symbol 0, as a machine: taken raw
	f.define(other) // symbol 1
	for i := 0; i < 3; i++ {
		f.op(wireQuery, 5)
		f.define(fmt.Sprintf("inf%02d", 4+i)) // symbols 2, 3, 4
		f.symbol(0)                           // as a domain: normalized
		f.op(wireResolution, 5)
		f.symbol(0)
		f.ips(dnsutil.IPv4(0x0a000010 + uint32(i)))
		f.op(wireQuery, 5)
		f.symbol(0) // and as a machine again
		f.symbol(1)
	}
	q := func(m, d string) logio.Event {
		return logio.Event{Kind: logio.EventQuery, Day: 5, Machine: m, Domain: d}
	}
	evs := []logio.Event{q(raw, other)}
	for i := 0; i < 3; i++ {
		evs = append(evs,
			q(fmt.Sprintf("inf%02d", 4+i), norm),
			logio.Event{Kind: logio.EventResolution, Day: 5, Domain: norm, IPs: []dnsutil.IPv4{dnsutil.IPv4(0x0a000010 + uint32(i))}},
			q(raw, other))
	}
	requireSymbolEquivalence(t,
		[][]byte{wireStream(f)}, [][]byte{textConn(t, evs)}, evs,
		nil, nil, nil)
}

// TestSymbolTablesRebindAcrossRotation swaps the day builder under a
// live connection: frame one defines its names on day 5, frame two —
// sent once frame one is applied — uses the same symbols, never defined
// again, on day 6. The rings' node ids belong to day 5's builder; the
// first day-6 batch must drop them rather than stage day-5 ids for the
// day-6 builder.
func TestSymbolTablesRebindAcrossRotation(t *testing.T) {
	suffixes := dnsutil.DefaultSuffixList()
	src, _, _ := equivLabelSources()
	m, _ := newMetrics()
	act := activity.NewLog()
	in := New(Config{
		Network: "equiv", StartDay: 5, Workers: 3, Activity: act, Metrics: m, ShedPolicy: ShedBlock,
		PrepareSnapshot: func(g *graph.Graph) { g.ApplyLabels(src(g.Day())) },
	})
	defer in.Shutdown()
	send, hangUp := segb1Conn(t, in)
	defer hangUp()

	day5 := genEquivEvents(5)
	send(day5)
	waitFor(t, "day 5 applied", func() bool { return m.EventsIngested.Value() == int64(len(day5)) })
	// Day 6 mentions day 5's names in another order, so a stale slot would
	// not even point at the same-numbered node by accident.
	day6 := genEquivEvents(6)
	slices.Reverse(day6)
	send(day6)
	waitFor(t, "day 6 applied", func() bool { return m.EventsIngested.Value() == int64(len(day5)+len(day6)) })
	if m.Rotations.Value() != 1 || m.EventsStale.Value() != 0 {
		t.Fatalf("rotations/stale = %d/%d, want one rotation and nothing stale", m.Rotations.Value(), m.EventsStale.Value())
	}

	got, _ := in.Snapshot()
	want := refReplay("equiv", 6, suffixes, day6).Build()
	want.ApplyLabels(src(6))
	requireGraphsEquivalent(t, want, got, act)
	wantAct := activity.NewLog()
	markEveryQuery(wantAct, suffixes, slices.Concat(day5, day6))
	requireActivityEquivalent(t, wantAct, act, suffixes, day6, 5, 6)

	// The connection is still open, so its rings are still attached: they
	// must hold day 6's ids, bound to day 6.
	filled := 0
	in.epochMu.RLock()
	nm := in.builder.NumMachines()
	in.epochMu.RUnlock()
	for s := range in.shardRings {
		in.shards[s].mu.Lock()
		for _, r := range *in.shardRings[s].Load() {
			if r.nodes.day != 6 {
				t.Errorf("shard %d: ring's symbol cache is bound to day %d, the day builder is day 6's", s, r.nodes.day)
			}
			for _, id := range r.nodes.machine {
				if id != 0 {
					filled++
					if int(id-1) >= nm {
						t.Errorf("shard %d: cached machine id %d, the day builder has %d machines", s, id-1, nm)
					}
				}
			}
		}
		in.shards[s].mu.Unlock()
	}
	if filled == 0 {
		t.Fatal("no ring filled a symbol slot: the segb1 connection did not take the symbol path")
	}
}

// TestSymbolTableGrowth pins the table primitive: symbol 0 is never
// stored, unknown symbols miss, growth keeps earlier entries, and a zero
// value is a hit.
func TestSymbolTableGrowth(t *testing.T) {
	var tab symTable
	tab.put(0, 7)
	if _, ok := tab.get(0); ok || len(tab) != 0 {
		t.Fatal("symbol 0 was stored")
	}
	tab.put(3, 0)
	tab.put(900, 41)
	for _, c := range []struct {
		sym  uint32
		want int32
		ok   bool
	}{{3, 0, true}, {900, 41, true}, {2, 0, false}, {901, 0, false}, {1 << 30, 0, false}} {
		if v, ok := tab.get(c.sym); ok != c.ok || ok && v != c.want {
			t.Fatalf("get(%d) = %d, %v; want %d, %v", c.sym, v, ok, c.want, c.ok)
		}
	}
	if len(tab) != 901 {
		t.Fatalf("table grew to %d entries, want 901 (highest symbol + 1)", len(tab))
	}
}

// TestShardRoutingCachedPerSymbolAndUse: the producer hashes a numbered
// name once and then routes by its symbol — by the machine table for a
// query, by the domain table for a resolution, which for one symbol used
// both ways are two different strings and may be two different shards.
func TestShardRoutingCachedPerSymbolAndUse(t *testing.T) {
	in := New(Config{Network: "route", StartDay: 5, Workers: 3})
	defer in.Shutdown()
	src := in.newSource("test")
	defer src.close()
	const raw, norm = "Host-7.Gray0.ORG", "host-7.gray0.org"
	if graph.ShardOf(raw, 3) == graph.ShardOf(norm, 3) {
		t.Fatal("fixture: both spellings hash to one shard, the test would prove nothing")
	}
	query := logio.Event{Kind: logio.EventQuery, Day: 5, Machine: raw, MachineSym: 1, Domain: "x.example.com", DomainSym: 2}
	resolution := logio.Event{Kind: logio.EventResolution, Day: 5, Domain: norm, DomainSym: 1}
	for pass := 0; pass < 2; pass++ { // cold, then from the tables
		if got, want := src.shardOf(&query), graph.ShardOf(raw, 3); got != want {
			t.Fatalf("pass %d: query routed to shard %d, its machine hashes to %d", pass, got, want)
		}
		if got, want := src.shardOf(&resolution), graph.ShardOf(norm, 3); got != want {
			t.Fatalf("pass %d: resolution routed to shard %d, its domain hashes to %d", pass, got, want)
		}
	}
	if len(src.machineShard) != 2 || len(src.domainShard) != 2 {
		t.Fatalf("routing tables hold %d and %d entries, want symbol 1 in each and the query's domain symbol in neither",
			len(src.machineShard), len(src.domainShard))
	}
	// A cached route is not re-derived: a query's domain symbol and a
	// literal never touch the tables.
	literal := logio.Event{Kind: logio.EventQuery, Day: 5, Machine: "m-literal", Domain: "x.example.com"}
	if got, want := src.shardOf(&literal), graph.ShardOf("m-literal", 3); got != want || len(src.machineShard) != 2 {
		t.Fatalf("literal machine routed to %d (want %d) or was cached (table has %d entries)", got, want, len(src.machineShard))
	}
}

// dirtyNames is g's dirty set by name, as its Delta names it.
func dirtyNames(g *graph.Graph) ([]string, bool) {
	d := g.DeltaOf(g.DirtyDomains())
	return d.Domains, d.Exact
}
