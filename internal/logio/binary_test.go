package logio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"segugio/internal/dnsutil"
	"segugio/internal/faultinject"
)

// binEvents is a fixture with repeated machines/domains (so interning
// kicks in) and mixed kinds.
func binEvents(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		m := fmt.Sprintf("m%d", i%7)
		d := fmt.Sprintf("d%d.example.com", i%11)
		if i%5 == 4 {
			evs = append(evs, Event{Kind: EventResolution, Day: 3 + i/1000, Domain: d,
				IPs: []dnsutil.IPv4{dnsutil.MakeIPv4(10, 0, byte(i%250), 1), dnsutil.MakeIPv4(10, 1, byte(i%250), 2)}})
		} else {
			evs = append(evs, Event{Kind: EventQuery, Day: 3 + i/1000, Machine: m, Domain: d})
		}
	}
	return evs
}

func encodeAll(t testing.TB, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEventEncoder(&buf)
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

func decodeAll(t testing.TB, r io.Reader) ([]Event, int, error) {
	t.Helper()
	var got []Event
	errs := 0
	err := ReadEventsBinary(r, func(e Event) error {
		// Deep-copy IPs: the arena is safe, but the test wants
		// independence from the decoder entirely.
		e.IPs = append([]dnsutil.IPv4(nil), e.IPs...)
		got = append(got, e)
		return nil
	}, func(error) { errs++ })
	return got, errs, err
}

func TestBinaryRoundTrip(t *testing.T) {
	want := binEvents(5000) // spans multiple frames and two day values
	wire := encodeAll(t, want)
	got, errs, err := decodeAll(t, bytes.NewReader(wire))
	if err != nil || errs != 0 {
		t.Fatalf("decode: err=%v frameErrs=%d", err, errs)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Day != want[i].Day ||
			got[i].Machine != want[i].Machine || got[i].Domain != want[i].Domain ||
			len(got[i].IPs) != len(want[i].IPs) {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
		for j := range want[i].IPs {
			if got[i].IPs[j] != want[i].IPs[j] {
				t.Fatalf("event %d ip %d = %v, want %v", i, j, got[i].IPs[j], want[i].IPs[j])
			}
		}
	}
	// Interning must actually compress: the text rendering is much
	// bigger than the symbol-table wire form.
	var text bytes.Buffer
	for _, e := range want {
		WriteEvent(&text, e)
	}
	if len(wire) >= text.Len() {
		t.Fatalf("binary %d bytes >= text %d bytes: interning is not working", len(wire), text.Len())
	}
}

func TestBinaryRoundTripShortReads(t *testing.T) {
	want := binEvents(300)
	wire := encodeAll(t, want)
	got, errs, err := decodeAll(t, &faultinject.ShortReader{R: bytes.NewReader(wire)})
	if err != nil || errs != 0 {
		t.Fatalf("decode: err=%v frameErrs=%d", err, errs)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	if got, errs, err := decodeAll(t, bytes.NewReader(nil)); err != nil || errs != 0 || len(got) != 0 {
		t.Fatalf("empty stream: got=%d errs=%d err=%v", len(got), errs, err)
	}
}

// twoFrameWire encodes two frames whose second frame only defines fresh
// symbols (never references earlier ids), so corrupting frame one must
// not poison frame two.
func twoFrameWire(t *testing.T) (wire []byte, frame1Events, frame2Events int) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEventEncoder(&buf)
	a := []Event{
		{Kind: EventQuery, Day: 1, Machine: "mA", Domain: "a.example.com"},
		{Kind: EventQuery, Day: 1, Machine: "mA", Domain: "a.example.com"},
	}
	for _, e := range a {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	b := []Event{
		{Kind: EventQuery, Day: 1, Machine: "mB", Domain: "b.example.com"},
		{Kind: EventResolution, Day: 1, Domain: "c.example.com", IPs: []dnsutil.IPv4{dnsutil.MakeIPv4(10, 0, 0, 9)}},
	}
	for _, e := range b {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(a), len(b)
}

func TestBinaryBadCRCSkipsFrame(t *testing.T) {
	wire, _, n2 := twoFrameWire(t)
	// Corrupt one payload byte of the first frame (after magic +
	// 1-byte length varint; frames here are tiny).
	corrupted := append([]byte(nil), wire...)
	corrupted[len(BinaryMagic)+3] ^= 0xff
	got, errs, err := decodeAll(t, bytes.NewReader(corrupted))
	if err != nil {
		t.Fatalf("decode aborted: %v", err)
	}
	if errs != 1 {
		t.Fatalf("frame errors = %d, want 1", errs)
	}
	if len(got) != n2 {
		t.Fatalf("decoded %d events, want the %d from the intact frame", len(got), n2)
	}
	if got[0].Machine != "mB" {
		t.Fatalf("surviving event = %+v, want frame-two's", got[0])
	}
}

func TestBinaryTornTail(t *testing.T) {
	want := binEvents(200)
	wire := encodeAll(t, want)
	for _, cut := range []int{1, 3, 17} {
		got, errs, err := decodeAll(t, bytes.NewReader(wire[:len(wire)-cut]))
		if err != nil {
			t.Fatalf("cut %d: torn tail must end cleanly, got %v", cut, err)
		}
		if errs != 1 {
			t.Fatalf("cut %d: frame errors = %d, want 1", cut, errs)
		}
		if len(got) >= len(want) {
			t.Fatalf("cut %d: decoded %d of %d events despite torn tail", cut, len(got), len(want))
		}
	}
}

func TestBinaryFlakyReaderAborts(t *testing.T) {
	wire := encodeAll(t, binEvents(2000))
	_, _, err := decodeAll(t, &faultinject.FlakyReader{R: bytes.NewReader(wire), FailAfter: int64(len(wire) / 2)})
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("mid-stream I/O error must abort with the cause, got %v", err)
	}
}

// rawFrame wraps a hand-built payload in valid framing (magic + length
// + CRC) so decode tests can target record-level corruption.
func rawFrame(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(BinaryMagic)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	buf.Write(lenBuf[:n])
	buf.Write(payload)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	buf.Write(crcBuf[:])
	return buf.Bytes()
}

func TestBinaryMalformedRecords(t *testing.T) {
	cases := map[string][]byte{
		"unknown opcode": {0x7f, 0x02},
		"bad day varint": {opQuery, 0x80},
		"unknown symbol": append([]byte{opQuery, 0x02},
			// machine = symbol id 40 (tag 42) that was never defined
			42, 42),
		"ref length past frame": {opQuery, 0x02, 0x00, 0x7f, 'x'},
		"ip count past frame": append([]byte{opResolution, 0x02},
			// domain literal "a.co", then claims 100 ips with 0 bytes left
			0x00, 0x04, 'a', '.', 'c', 'o', 100),
		"bad domain literal": {opQuery, 0x02, 0x00, 0x01, 'm', 0x00, 0x03, '!', '!', '!'},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			got, errs, err := decodeAll(t, bytes.NewReader(rawFrame(payload)))
			if err != nil {
				t.Fatalf("record-level damage must not abort the stream: %v", err)
			}
			if errs != 1 {
				t.Fatalf("frame errors = %d, want 1", errs)
			}
			if len(got) != 0 {
				t.Fatalf("decoded %d events from a malformed frame", len(got))
			}
		})
	}
}

func TestBinaryDesyncAborts(t *testing.T) {
	// A frame length past MaxFrameBytes means record boundaries are
	// untrustworthy: the stream must abort, not skip.
	var buf bytes.Buffer
	buf.WriteString(BinaryMagic)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(MaxFrameBytes)+1)
	buf.Write(lenBuf[:n])
	buf.Write(make([]byte, 64))
	if _, _, err := decodeAll(t, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("oversized frame length must abort the stream")
	}
	if _, _, err := decodeAll(t, strings.NewReader("not a binary stream at all")); err == nil {
		t.Fatal("bad magic must abort the stream")
	}
}

func TestBinaryEncoderReset(t *testing.T) {
	// Reset must produce self-contained streams: the second use may not
	// lean on symbols defined during the first (the WAL's per-record
	// invariant).
	e := Event{Kind: EventQuery, Day: 2, Machine: "m1", Domain: "a.example.com"}
	var first bytes.Buffer
	enc := NewEventEncoder(&first)
	if err := enc.Encode(e); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	enc.Reset(&second)
	if err := enc.Encode(e); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("post-Reset encoding differs: a record stream leaned on prior state")
	}
	got, errs, err := decodeAll(t, bytes.NewReader(second.Bytes()))
	if err != nil || errs != 0 || len(got) != 1 || got[0].Machine != "m1" {
		t.Fatalf("post-Reset stream decode: got=%+v errs=%d err=%v", got, errs, err)
	}
}

func TestBinaryLiteralFallbackPastSymbolCap(t *testing.T) {
	// Exhaust the symbol-count cap with distinct strings (each event
	// defines a machine and a domain), then verify strings past the cap
	// still round-trip — as literals.
	var buf bytes.Buffer
	enc := NewEventEncoder(&buf)
	events := make([]Event, 0, maxSymbols/2+3)
	for i := 0; i < maxSymbols/2+1; i++ {
		events = append(events, Event{Kind: EventQuery, Day: 1,
			Machine: fmt.Sprintf("mach-%d", i), Domain: fmt.Sprintf("d%d.example.com", i)})
	}
	events = append(events,
		Event{Kind: EventQuery, Day: 1, Machine: "m-after-cap", Domain: "b.example.com"},
		Event{Kind: EventQuery, Day: 1, Machine: "m-after-cap", Domain: "b.example.com"})
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	got, errs, err := decodeAll(t, bytes.NewReader(buf.Bytes()))
	if err != nil || errs != 0 {
		t.Fatalf("decode: err=%v frameErrs=%d", err, errs)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i, e := range events {
		if got[i].Machine != e.Machine || got[i].Domain != e.Domain {
			t.Fatalf("event %d mismatch after symbol-cap fallback", i)
		}
	}
}

// TestDecoderReportsSymbols: every name that went through the stream's
// symbol table arrives with its 1-based symbol, a literal with 0, and one
// symbol always with the same string per use.
func TestDecoderReportsSymbols(t *testing.T) {
	evs := binEvents(200)
	got, errs, err := decodeAll(t, bytes.NewReader(encodeAll(t, evs)))
	if err != nil || errs != 0 || len(got) != len(evs) {
		t.Fatalf("decode: %d of %d events, err=%v frameErrs=%d", len(got), len(evs), err, errs)
	}
	// The encoder numbers strings in order of first appearance, machine
	// before domain within a query.
	want := make(map[string]uint32)
	sym := func(s string) uint32 {
		if _, ok := want[s]; !ok {
			want[s] = uint32(len(want)) + 1
		}
		return want[s]
	}
	for i, e := range evs {
		var msym uint32
		if e.Kind == EventQuery {
			msym = sym(e.Machine)
		}
		if dsym := sym(e.Domain); got[i].MachineSym != msym || got[i].DomainSym != dsym {
			t.Fatalf("event %d: symbols (%d, %d), want (%d, %d)", i, got[i].MachineSym, got[i].DomainSym, msym, dsym)
		}
	}

	// Literal references carry no symbol; text events never do.
	d := NewEventDecoder(bytes.NewReader(nil))
	defer d.Release()
	payload := []byte{opQuery, 0x02, refLiteral, 0x02, 'm', '1', refDefine, 0x05, 'A', '.', 'c', 'o', 'm',
		opQuery, 0x02, refBase + 0, refLiteral, 0x05, 'a', '.', 'c', 'o', 'm'}
	var seen []Event
	if _, err := d.DecodeFrame(payload, func(e *Event) error { seen = append(seen, *e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0].MachineSym != 0 || seen[0].DomainSym != 1 || seen[0].Domain != "a.com" ||
		seen[1].MachineSym != 1 || seen[1].Machine != "A.com" || seen[1].DomainSym != 0 || seen[1].Domain != "a.com" {
		t.Fatalf("mixed literal/define/symbol frame decoded to %+v", seen)
	}
	if e, err := ParseEvent("q\t1\tm\ta.com"); err != nil || e.MachineSym != 0 || e.DomainSym != 0 {
		t.Fatalf("text event carries symbols: %+v, %v", e, err)
	}
}

// symbolInvariant returns a per-stream checker for the contract consumers
// key their caches on: within one stream, a non-zero MachineSym always
// arrives with the same Machine and a non-zero DomainSym with the same
// Domain.
func symbolInvariant(t *testing.T) func(*Event) {
	machines, domains := make(map[uint32]string), make(map[uint32]string)
	check := func(use string, seen map[uint32]string, sym uint32, s string) {
		if sym == 0 {
			return
		}
		if sym > maxSymbols {
			t.Fatalf("%s symbol %d exceeds the table cap %d", use, sym, maxSymbols)
		}
		if prev, ok := seen[sym]; ok && prev != s {
			t.Fatalf("%s symbol %d arrived as %q and as %q in one stream", use, sym, prev, s)
		}
		seen[sym] = s
	}
	return func(e *Event) {
		if e.Kind == EventQuery {
			check("machine", machines, e.MachineSym, e.Machine)
		} else if e.MachineSym != 0 {
			t.Fatalf("resolution carries machine symbol %d", e.MachineSym)
		}
		check("domain", domains, e.DomainSym, e.Domain)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{opQuery, 0x02, 0x01, 0x02, 'm', '1', 0x01, 0x05, 'a', '.', 'c', 'o', 'm'})
	f.Add([]byte{opResolution, 0x02, 0x00, 0x04, 'a', '.', 'c', 'o', 0x01, 10, 0, 0, 1})
	// One symbol as a machine (raw) and as a domain (normalized), then a
	// literal of the same name.
	f.Add([]byte{opQuery, 0x02, 0x01, 0x05, 'A', '.', 'c', 'o', 'm', 0x02, opQuery, 0x02, 0x02, 0x00, 0x05, 'a', '.', 'c', 'o', 'm'})
	wire := encodeAll(f, binEvents(64))
	f.Add(wire[len(BinaryMagic)+2:]) // roughly a real payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		d := NewEventDecoder(bytes.NewReader(nil))
		defer d.Release()
		// Must never panic or hang; errors are fine. A second frame on the
		// same decoder sees the table the first one left behind.
		check := symbolInvariant(t)
		for pass := 0; pass < 2; pass++ {
			d.DecodeFrame(payload, func(e *Event) error {
				if e.Kind != EventQuery && e.Kind != EventResolution {
					t.Fatalf("decoded impossible kind %d", e.Kind)
				}
				check(e)
				return nil
			})
		}
	})
}

func FuzzDecodeStream(f *testing.F) {
	f.Add(encodeAll(f, binEvents(32)))
	f.Add([]byte(BinaryMagic))
	f.Add([]byte("q\t1\tm\ta.com\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		d := NewEventDecoder(bytes.NewReader(stream))
		defer d.Release()
		check := symbolInvariant(t)
		d.Run(func(e *Event) error { check(e); return nil })
	})
}
