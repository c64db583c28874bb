package ingest

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"segugio/internal/logio"
)

func TestTraceDNSParse(t *testing.T) {
	in := New(Config{Network: "net", StartDay: 7, Workers: 1})
	defer in.Shutdown()
	p := &traceDNSParser{in: in}

	const dayNS = int64(24 * 60 * 60 * 1e9)
	base := int64(1700000000_000000000)

	// Query: machine is the client address, name loses its trailing dot.
	e, ok, err := p.parse(`{"qr":"Q","name":"www.Example.COM.","src":{"addr":"10.1.2.3"},"timestamp_raw":` + itoa(base) + `}`)
	if err != nil || !ok {
		t.Fatalf("query parse: ok=%v err=%v", ok, err)
	}
	if e.Kind != 1 || e.Machine != "10.1.2.3" || e.Domain != "www.example.com" || e.Day != 7 {
		t.Fatalf("query event = %+v", e)
	}

	// Response with comma-separated addresses string; IPv6 skipped.
	e, ok, err = p.parse(`{"qr":"R","name":"cdn.example.net","src":{"addr":"10.1.2.3"},` +
		`"addresses":"93.184.216.34,2606:2800:220:1::1,93.184.216.35","timestamp_raw":` + itoa(base+1) + `}`)
	if err != nil || !ok {
		t.Fatalf("response parse: ok=%v err=%v", ok, err)
	}
	if e.Kind != 2 || e.Domain != "cdn.example.net" || len(e.IPs) != 2 {
		t.Fatalf("response event = %+v", e)
	}
	if e.IPs[0].String() != "93.184.216.34" || e.IPs[1].String() != "93.184.216.35" {
		t.Fatalf("response ips = %v", e.IPs)
	}

	// Response with a JSON array of addresses.
	e, ok, err = p.parse(`{"qr":"R","name":"a.example.org","addresses":["198.51.100.7"],"timestamp_raw":` + itoa(base+2) + `}`)
	if err != nil || !ok || len(e.IPs) != 1 || e.IPs[0].String() != "198.51.100.7" {
		t.Fatalf("array addresses: e=%+v ok=%v err=%v", e, ok, err)
	}

	// AAAA-only response: valid line, no event.
	if _, ok, err := p.parse(`{"qr":"R","name":"v6.example.org","addresses":"2606:2800::1","timestamp_raw":` + itoa(base+3) + `}`); err != nil || ok {
		t.Fatalf("AAAA-only response must yield no event: ok=%v err=%v", ok, err)
	}
	// Response with no addresses field at all.
	if _, ok, err := p.parse(`{"qr":"R","name":"nx.example.org","timestamp_raw":` + itoa(base+4) + `}`); err != nil || ok {
		t.Fatalf("empty response must yield no event: ok=%v err=%v", ok, err)
	}

	// Day advancement: 2.5 days after the anchor lands on baseDay+2.
	e, ok, err = p.parse(`{"qr":"Q","name":"late.example.com","src":{"addr":"10.0.0.1"},"timestamp_raw":` + itoa(base+dayNS*5/2) + `}`)
	if err != nil || !ok || e.Day != 9 {
		t.Fatalf("2.5 days later: day=%d want 9 (err=%v)", e.Day, err)
	}
	// A timestamp before the anchor stays on the anchor day.
	e, _, err = p.parse(`{"qr":"Q","name":"early.example.com","src":{"addr":"10.0.0.1"},"timestamp_raw":` + itoa(base-dayNS) + `}`)
	if err != nil || e.Day != 7 {
		t.Fatalf("pre-anchor timestamp: day=%d want 7 (err=%v)", e.Day, err)
	}

	// Malformed inputs error.
	for _, bad := range []string{
		`{not json`,
		`{"qr":"Q","name":"!!bad!!","src":{"addr":"10.0.0.1"}}`, // invalid domain
		`{"qr":"Q","name":"ok.example.com"}`,                    // query without src.addr
		`{"qr":"X","name":"ok.example.com"}`,                    // unknown qr
		`{"qr":"R","name":"ok.example.com","addresses":42}`,     // addresses wrong type
	} {
		if _, _, err := p.parse(bad); err == nil {
			t.Errorf("parse(%q) did not error", bad)
		}
	}
}

func itoa(v int64) string {
	b := make([]byte, 0, 20)
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(append(b, digits[i:]...))
}

// TestConsumeTraceDNS runs gadget JSONL through the full ingest path:
// valid lines build the graph, malformed lines are counted and skipped.
func TestConsumeTraceDNS(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 2, Workers: 2, Metrics: m})
	defer in.Shutdown()
	jsonl := `{"qr":"Q","name":"c2.bad.example.","src":{"addr":"10.0.0.1"},"timestamp_raw":1000}
{"qr":"Q","name":"c2.bad.example.","src":{"addr":"10.0.0.2"},"timestamp_raw":2000}
garbage line that is not json

{"qr":"R","name":"c2.bad.example","addresses":"203.0.113.9","timestamp_raw":3000}
{"qr":"R","name":"quiet.example","timestamp_raw":4000}
`
	if err := in.ConsumeTraceDNS(strings.NewReader(jsonl)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trace events applied", func() bool {
		return m.EventsIngested.Value() == 3
	})
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d, want 1", m.ParseErrors.Value())
	}
	g, _ := in.Snapshot()
	d, ok := g.DomainIndex("c2.bad.example")
	if !ok {
		t.Fatal("domain missing from graph")
	}
	if g.DomainDegree(d) != 2 {
		t.Fatalf("domain degree = %d, want 2 machines", g.DomainDegree(d))
	}
	if len(g.DomainIPs(d)) != 1 {
		t.Fatalf("domain ips = %v, want the one A answer", g.DomainIPs(d))
	}
}

// TestConsumeTraceDNSSkipsOverlongLine: a line longer than
// logio.MaxLineBytes between two valid records is one parse error, not
// the end of the tap — the record after it still arrives.
func TestConsumeTraceDNSSkipsOverlongLine(t *testing.T) {
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 2, Workers: 1, Metrics: m})
	defer in.Shutdown()
	jsonl := `{"qr":"Q","name":"first.example.","src":{"addr":"10.0.0.1"},"timestamp_raw":1000}` + "\n" +
		`{"qr":"Q","name":"` + strings.Repeat("a", logio.MaxLineBytes) + `.example.","src":{"addr":"10.0.0.3"}}` + "\n" +
		`{"qr":"Q","name":"second.example.","src":{"addr":"10.0.0.2"},"timestamp_raw":2000}` + "\n"
	if err := in.ConsumeTraceDNS(strings.NewReader(jsonl)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both records applied", func() bool { return m.EventsIngested.Value() == 2 })
	if m.ParseErrors.Value() != 1 {
		t.Fatalf("parse errors = %d, want 1", m.ParseErrors.Value())
	}
	g, _ := in.Snapshot()
	for _, name := range []string{"first.example", "second.example"} {
		if _, ok := g.DomainIndex(name); !ok {
			t.Fatalf("%s missing from the graph", name)
		}
	}
}

// TestTraceDNSTailer follows a growing gadget JSONL file.
func TestTraceDNSTailer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	if err := os.WriteFile(path, []byte(`{"qr":"Q","name":"a.example.com","src":{"addr":"10.0.0.1"},"timestamp_raw":1000}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, _ := newMetrics()
	in := New(Config{Network: "net", StartDay: 1, Workers: 1, Metrics: m})
	defer in.Shutdown()
	tl := in.NewTraceDNSTailer(path, 5*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- tl.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitFor(t, "first trace line tailed", func() bool { return m.EventsIngested.Value() == 1 })

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"qr":"R","name":"a.example.com","addresses":"192.0.2.1","timestamp_raw":2000}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitFor(t, "appended trace line tailed", func() bool { return m.EventsIngested.Value() == 2 })
	g, _ := in.Snapshot()
	d, ok := g.DomainIndex("a.example.com")
	if !ok || len(g.DomainIPs(d)) != 1 {
		t.Fatalf("tailed trace not applied: ok=%v", ok)
	}
}
