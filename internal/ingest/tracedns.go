package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"segugio/internal/dnsutil"
	"segugio/internal/logio"
)

// trace_dns source adapter: maps the JSONL emitted by inspektor-gadget's
// trace_dns gadget (`ig run trace_dns -o jsonl`) onto the event stream.
// Query packets (qr "Q") become EventQuery records keyed by the client
// address; response packets (qr "R") carrying A-record addresses become
// EventResolution records. AAAA/IPv6 answers are skipped (the behavior
// graph is IPv4-keyed), as are responses with no addresses. Malformed
// lines are counted as parse errors and skipped — gadget output is
// external tooling, one bad line must not abort a live tap.
//
// Days are derived from timestamp_raw (nanoseconds): the first record
// seen anchors to the ingester's current epoch day, and each later
// record's day advances with whole 24h periods elapsed since that
// anchor, driving the same day-rotation machinery as native events.

// traceDNSRecord is the subset of the gadget's JSON fields the adapter
// reads.
type traceDNSRecord struct {
	QR   string `json:"qr"`
	Name string `json:"name"`
	Src  struct {
		Addr string `json:"addr"`
	} `json:"src"`
	// Addresses is a comma-separated string in gadget.yaml's rendering
	// but an array in some output modes; accept both.
	Addresses    json.RawMessage `json:"addresses"`
	TimestampRaw int64           `json:"timestamp_raw"`
}

// traceDNSParser converts gadget JSONL lines to events, carrying the
// day anchor across lines. Not safe for concurrent use.
type traceDNSParser struct {
	in       *Ingester
	baseDay  int
	anchorNS int64
	anchored bool
}

// parse maps one line to an event. ok=false with a nil error means the
// line is valid but carries no event (a response without IPv4 answers).
func (p *traceDNSParser) parse(line string) (logio.Event, bool, error) {
	var rec traceDNSRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		return logio.Event{}, false, fmt.Errorf("tracedns: %w", err)
	}
	name := strings.TrimSuffix(rec.Name, ".")
	domain, err := dnsutil.Normalize(name)
	if err != nil {
		return logio.Event{}, false, fmt.Errorf("tracedns: %w", err)
	}
	day := p.day(rec.TimestampRaw)
	switch rec.QR {
	case "Q":
		if rec.Src.Addr == "" {
			return logio.Event{}, false, fmt.Errorf("tracedns: query for %s has no src.addr", domain)
		}
		return logio.Event{Kind: logio.EventQuery, Day: day, Machine: rec.Src.Addr, Domain: domain}, true, nil
	case "R":
		ips, err := parseTraceDNSAddresses(rec.Addresses)
		if err != nil {
			return logio.Event{}, false, err
		}
		if len(ips) == 0 {
			return logio.Event{}, false, nil // pure response or AAAA-only: nothing to add
		}
		return logio.Event{Kind: logio.EventResolution, Day: day, Domain: domain, IPs: ips}, true, nil
	default:
		return logio.Event{}, false, fmt.Errorf("tracedns: unknown qr %q", rec.QR)
	}
}

// day anchors the first observed timestamp to the ingester's current
// epoch and advances by whole days from there. Records without a
// timestamp stay on the anchor day.
func (p *traceDNSParser) day(tsNS int64) int {
	if !p.anchored {
		p.baseDay = p.in.Day()
		p.anchorNS = tsNS
		p.anchored = true
	}
	if tsNS == 0 || p.anchorNS == 0 || tsNS < p.anchorNS {
		return p.baseDay
	}
	const dayNS = 24 * 60 * 60 * 1e9
	return p.baseDay + int((tsNS-p.anchorNS)/dayNS)
}

// parseTraceDNSAddresses decodes the addresses field — string or array
// — keeping the IPv4 answers and silently skipping IPv6 ones.
func parseTraceDNSAddresses(raw json.RawMessage) ([]dnsutil.IPv4, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	var parts []string
	if raw[0] == '[' {
		if err := json.Unmarshal(raw, &parts); err != nil {
			return nil, fmt.Errorf("tracedns: addresses: %w", err)
		}
	} else {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("tracedns: addresses: %w", err)
		}
		if s != "" {
			parts = strings.Split(s, ",")
		}
	}
	ips := make([]dnsutil.IPv4, 0, len(parts))
	for _, part := range parts {
		ip, err := dnsutil.ParseIPv4(strings.TrimSpace(part))
		if err != nil {
			continue // AAAA answers land here; the graph is IPv4-keyed
		}
		ips = append(ips, ip)
	}
	return ips, nil
}

// ConsumeTraceDNS ingests trace_dns JSONL from r until EOF or
// shutdown, through the Tailer's line loop: malformed and over-long lines
// are counted as parse errors and skipped; only an I/O error aborts.
func (in *Ingester) ConsumeTraceDNS(r io.Reader) error {
	in.consumers.Add(1)
	defer in.consumers.Done()
	select {
	case <-in.closing:
		return ErrShuttingDown
	default:
	}
	t := &Tailer{in: in, src: in.newSource("tracedns"), parse: (&traceDNSParser{in: in}).parse}
	defer t.src.close()
	err := t.consume(r)
	if err != nil && !errors.Is(err, ErrShuttingDown) {
		inc(in.m.ParseErrors)
		return fmt.Errorf("ingest: tracedns stream: %w", err)
	}
	return err
}

// NewTraceDNSTailer builds a Tailer that follows a trace_dns JSONL
// file instead of a native event file, with the same resume-offset and
// rotation semantics.
func (in *Ingester) NewTraceDNSTailer(path string, interval time.Duration) *Tailer {
	t := in.NewTailer(path, interval)
	t.parse = (&traceDNSParser{in: in}).parse
	return t
}
