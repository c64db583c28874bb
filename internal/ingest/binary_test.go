package ingest

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/logio"
	"segugio/internal/wal"
)

// binStream renders events as a segb1 binary stream.
func binStream(t *testing.T, events []logio.Event) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := logio.NewEventEncoder(&b)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func binTestEvents(n int) []logio.Event {
	var events []logio.Event
	for i := 0; i < n; i++ {
		machine := fmt.Sprintf("m%03d", i%70)
		domain := fmt.Sprintf("h%d.zone%d.com", i%40, i%15)
		events = append(events, logio.Event{Kind: logio.EventQuery, Day: 3, Machine: machine, Domain: domain})
		if i%5 == 0 {
			ip := dnsutil.MakeIPv4(10, 0, byte(i%7), byte(i%90))
			events = append(events, logio.Event{Kind: logio.EventResolution, Day: 3, Domain: domain, IPs: []dnsutil.IPv4{ip}})
		}
	}
	return events
}

// TestConsumeBinaryMatchesText feeds the same fixture through the text
// and the auto-detected binary path; the resulting graphs must be
// identical.
func TestConsumeBinaryMatchesText(t *testing.T) {
	events := binTestEvents(3000)

	mt, _ := newMetrics()
	it := New(Config{Network: "net", StartDay: 3, Workers: 4, Metrics: mt})
	if err := it.Consume(strings.NewReader(stream(t, events))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "text events applied", func() bool {
		return mt.EventsIngested.Value() == int64(len(events))
	})
	want, _ := it.Snapshot()
	it.Shutdown()

	mb, _ := newMetrics()
	ib := New(Config{Network: "net", StartDay: 3, Workers: 4, Metrics: mb})
	if err := ib.Consume(bytes.NewReader(binStream(t, events))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "binary events applied", func() bool {
		return mb.EventsIngested.Value() == int64(len(events))
	})
	got, _ := ib.Snapshot()
	ib.Shutdown()

	if graphShape(got) != graphShape(want) {
		t.Fatalf("binary graph shape %v, want %v (text)", graphShape(got), graphShape(want))
	}
	for d := int32(0); int(d) < want.NumDomains(); d++ {
		name := want.DomainName(d)
		gd, ok := got.DomainIndex(name)
		if !ok {
			t.Fatalf("domain %q missing from binary-ingested graph", name)
		}
		if got.DomainDegree(gd) != want.DomainDegree(d) || len(got.DomainIPs(gd)) != len(want.DomainIPs(d)) {
			t.Fatalf("domain %q differs between text and binary ingest", name)
		}
	}
	if mb.ParseErrors.Value() != 0 || mb.EventsDropped.Value() != 0 {
		t.Fatalf("binary ingest: parse errors %d, dropped %d", mb.ParseErrors.Value(), mb.EventsDropped.Value())
	}
}

// TestConsumeBinaryMalformedFrame corrupts one mid-stream frame: its
// loss must be counted as a parse error while later frames keep
// flowing — a bad frame never wedges the source.
func TestConsumeBinaryMalformedFrame(t *testing.T) {
	// Two frames, second self-contained (fresh strings only), as in the
	// logio-level test.
	var b bytes.Buffer
	enc := logio.NewEventEncoder(&b)
	if err := enc.Encode(logio.Event{Kind: logio.EventQuery, Day: 3, Machine: "mA", Domain: "a.example.com"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	frame1End := b.Len()
	if err := enc.Encode(logio.Event{Kind: logio.EventQuery, Day: 3, Machine: "mB", Domain: "b.example.com"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	wire := b.Bytes()
	wire[frame1End-1] ^= 0xff // corrupt frame one's CRC trailer

	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 3, Workers: 1, Metrics: m})
	defer in.Shutdown()
	if err := in.Consume(bytes.NewReader(wire)); err != nil {
		t.Fatalf("a skippable frame must not abort Consume: %v", err)
	}
	waitFor(t, "surviving event applied", func() bool {
		return m.EventsIngested.Value() == 1
	})
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d, want 1", m.ParseErrors.Value())
	}
	g, _ := in.Snapshot()
	if _, ok := g.DomainIndex("b.example.com"); !ok {
		t.Fatal("frame after the corrupt one was not ingested")
	}
}

// TestConsumeBinaryTruncatedStream: a torn tail (dead writer) ends the
// source cleanly with the complete frames applied.
func TestConsumeBinaryTruncatedStream(t *testing.T) {
	events := binTestEvents(10000) // several frames, so a torn tail leaves complete ones
	wire := binStream(t, events)
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 3, Workers: 2, Metrics: m})
	defer in.Shutdown()
	if err := in.Consume(bytes.NewReader(wire[:len(wire)-7])); err != nil {
		t.Fatalf("torn tail must end the source cleanly: %v", err)
	}
	waitFor(t, "events applied", func() bool { return m.EventsIngested.Value() > 0 })
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d, want 1 for the torn tail", m.ParseErrors.Value())
	}
	if got := m.EventsIngested.Value(); got >= int64(len(events)) {
		t.Fatalf("ingested %d events from a truncated stream of %d", got, len(events))
	}
}

// TestDurableMixedFormatWAL: WAL records are text event lines. A
// CRC-intact record that starts with the segb1 magic (a stripe written by
// a build that had a binary record format) is version skew like any other
// unparseable record: skipped and counted, with the records after it
// still replayed.
func TestDurableMixedFormatWAL(t *testing.T) {
	dir := t.TempDir()
	in, m, _ := openShards(t, dir, 1)
	head := genDurableEvents(5, 300)
	feed(t, in, m, head)
	// Unclean death: no Shutdown, no checkpoint. Append a segb1 record and
	// then a text record to the dead process's stripe.
	stripe, err := wal.Open(filepath.Join(dir, genDirName(1), shardWALDir(0)), wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	skewed := binStream(t, genDurableEvents(5, 50))
	if !bytes.HasPrefix(skewed, []byte(logio.BinaryMagic)) {
		t.Fatal("fixture record does not start with the segb1 magic")
	}
	tail := []logio.Event{{Kind: logio.EventQuery, Day: 5, Machine: "after", Domain: "after-skew.example.org"}}
	for _, payload := range [][]byte{skewed, []byte(stream(t, tail))} {
		if _, err := stripe.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := stripe.Close(); err != nil {
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
	if info.ReplayErrors != 1 || dm2.ReplayErrors.Value() != 1 {
		t.Fatalf("replay errors = %d (counter %d), want 1 for the segb1 record", info.ReplayErrors, dm2.ReplayErrors.Value())
	}
	if want := len(head) + len(tail); info.ReplayedEvents != want {
		t.Fatalf("replayed %d events, want %d (every text record, none from the segb1 one)", info.ReplayedEvents, want)
	}
	g, _ := in2.Snapshot()
	if _, ok := g.DomainIndex("after-skew.example.org"); !ok {
		t.Fatal("the record after the skipped one was not replayed")
	}
}
