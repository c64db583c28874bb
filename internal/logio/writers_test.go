package logio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"segugio/internal/dnsutil"
	"segugio/internal/intel"
)

// TestWritersGoldenFormat pins the text wire format byte-for-byte: the
// buffered writers must emit exactly what the old fmt.Fprintf code did.
func TestWritersGoldenFormat(t *testing.T) {
	ips := []dnsutil.IPv4{dnsutil.MakeIPv4(10, 0, 0, 1), dnsutil.MakeIPv4(192, 168, 200, 254)}
	var got bytes.Buffer
	if err := WriteQuery(&got, "m1", "a.example.com"); err != nil {
		t.Fatal(err)
	}
	if err := WriteResolution(&got, "a.example.com", ips); err != nil {
		t.Fatal(err)
	}
	if err := WriteActivityMark(&got, 17, "a.example.com"); err != nil {
		t.Fatal(err)
	}
	if err := WritePDNSRecord(&got, -3, "b.example.com", ips[1]); err != nil {
		t.Fatal(err)
	}
	if err := WriteEvent(&got, Event{Kind: EventQuery, Day: 17, Machine: "m1", Domain: "a.example.com"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteEvent(&got, Event{Kind: EventResolution, Day: 17, Domain: "a.example.com", IPs: ips}); err != nil {
		t.Fatal(err)
	}
	bl := intel.NewBlacklist()
	bl.Add(intel.BlacklistEntry{Domain: "bad.example.com", Family: "zeus", FirstListed: 4})
	if err := WriteBlacklist(&got, bl); err != nil {
		t.Fatal(err)
	}
	want := "m1\ta.example.com\n" +
		"a.example.com\t10.0.0.1,192.168.200.254\n" +
		"17\ta.example.com\n" +
		"-3\tb.example.com\t192.168.200.254\n" +
		"q\t17\tm1\ta.example.com\n" +
		"r\t17\ta.example.com\t10.0.0.1,192.168.200.254\n" +
		"bad.example.com\tzeus\t4\n"
	if got.String() != want {
		t.Fatalf("writer output changed:\ngot:  %q\nwant: %q", got.String(), want)
	}
}

// TestAppendEventMatchesWriteEvent: the ingester renders WAL records with
// AppendEvent straight into the record buffer, recovery parses what
// WriteEvent's format promises. A fixed event list must come out
// byte-identical through both, appended onto whatever the buffer held;
// symbols are a decoder-side annotation and never reach the text.
func TestAppendEventMatchesWriteEvent(t *testing.T) {
	events := []Event{
		{Kind: EventQuery, Day: 17, Machine: "m1", Domain: "a.example.com"},
		{Kind: EventQuery, Day: -2, Machine: "10.1.2.3", Domain: "xn--bcher-kva.example", MachineSym: 7, DomainSym: 1 << 17},
		{Kind: EventResolution, Day: 17, Domain: "a.example.com", DomainSym: 3,
			IPs: []dnsutil.IPv4{dnsutil.MakeIPv4(10, 0, 0, 1), dnsutil.MakeIPv4(192, 168, 200, 254)}},
		{Kind: EventResolution, Day: 18, Domain: "no-ips.example.org"},
		{Kind: EventQuery, Day: 1 << 40, Machine: strings.Repeat("m", 300), Domain: strings.Repeat("d", 63) + ".example"},
	}
	const golden = "q\t17\tm1\ta.example.com\n" +
		"q\t-2\t10.1.2.3\txn--bcher-kva.example\n" +
		"r\t17\ta.example.com\t10.0.0.1,192.168.200.254\n" +
		"r\t18\tno-ips.example.org\t\n"
	var written bytes.Buffer
	appended := []byte("prefix")
	for _, e := range events {
		if err := WriteEvent(&written, e); err != nil {
			t.Fatal(err)
		}
		appended = AppendEvent(appended, e)
	}
	if got := string(appended[len("prefix"):]); got != written.String() {
		t.Fatalf("AppendEvent and WriteEvent disagree:\nappend: %q\nwrite:  %q", got, written.String())
	}
	if !strings.HasPrefix(written.String(), golden) {
		t.Fatalf("event line format changed:\ngot:  %q\nwant prefix: %q", written.String(), golden)
	}
	if got := AppendEvent([]byte("kept"), Event{Kind: 99}); string(got) != "kept" {
		t.Fatalf("unknown kind appended %q", got)
	}
}

// TestEventSize: events cross two rings and a staging buffer by value, so
// the struct's size is hot-path memory traffic. The symbol pair fits in
// the padding-plus-one-word next to Kind.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 80 {
		t.Fatalf("logio.Event is %d bytes, budget is 80", size)
	}
}

// TestReadEventsLongLine: a valid event line far larger than the
// scanner's 64KiB initial buffer (but under MaxLineBytes) must parse,
// not fail with bufio.ErrTooLong. Regression test for the scanner
// buffer sizing in scanLines.
func TestReadEventsLongLine(t *testing.T) {
	var b strings.Builder
	b.WriteString("q\t1\tm1\ta.example.com\n")
	b.WriteString("r\t1\tbig.example.com\t")
	// ~900KB of IPs: 75000 * ~12 bytes each.
	for i := 0; i < 75000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)
	}
	b.WriteString("\nq\t1\tm2\tb.example.com\n")
	if len(b.String()) < 800*1024 {
		t.Fatalf("fixture only %d bytes; not exercising the buffer growth path", b.Len())
	}
	var events []Event
	if err := ReadEvents(strings.NewReader(b.String()), func(e Event) error {
		events = append(events, Event{Kind: e.Kind, Day: e.Day, Machine: e.Machine, Domain: e.Domain, IPs: append([]dnsutil.IPv4(nil), e.IPs...)})
		return nil
	}); err != nil {
		t.Fatalf("long valid line must parse: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if len(events[1].IPs) != 75000 {
		t.Fatalf("long resolution carried %d ips, want 75000", len(events[1].IPs))
	}
	if events[2].Machine != "m2" {
		t.Fatalf("event after the long line = %+v", events[2])
	}
}
