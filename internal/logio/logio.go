// Package logio defines the plain-text file formats the segugio CLI
// exchanges with the outside world, with streaming readers and writers:
//
//	query log     machine<TAB>domain
//	resolutions   domain<TAB>ip[,ip...]
//	blacklist     domain<TAB>family<TAB>firstListedDay
//	whitelist     e2ld
//	passive DNS   day<TAB>domain<TAB>ip
//	activity      day<TAB>domain
//	event stream  q<TAB>day<TAB>machine<TAB>domain
//	              r<TAB>day<TAB>domain<TAB>ip[,ip...]
//
// The event stream interleaves the query and resolution records with a
// day stamp; it is what segugiod ingests live (stdin, tailed file, or TCP
// connection).
//
// Lines starting with '#' and blank lines are ignored everywhere. All
// readers validate domain syntax via dnsutil.Normalize so malformed input
// fails loudly at the boundary instead of corrupting graphs, and every
// error — including scanner-level failures such as an over-long line — is
// reported with the 1-based line number it occurred on.
package logio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"segugio/internal/activity"
	"segugio/internal/dnsutil"
	"segugio/internal/intel"
	"segugio/internal/pdns"
)

// lineBufPool recycles line-assembly buffers for the writers: each line
// is built with appends into one pooled buffer and written in a single
// w.Write call, so the writers allocate nothing in steady state.
var lineBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// writeLine assembles one line via build (which appends the line body,
// without the trailing newline, to the buffer it is handed) and writes
// it with the newline in one call.
func writeLine(w io.Writer, build func(b []byte) []byte) error {
	bp := lineBufPool.Get().(*[]byte)
	b := build((*bp)[:0])
	b = append(b, '\n')
	_, err := w.Write(b)
	*bp = b[:0]
	lineBufPool.Put(bp)
	return err
}

// appendIPList appends a comma-separated dotted-quad list to b.
func appendIPList(b []byte, ips []dnsutil.IPv4) []byte {
	for i, ip := range ips {
		if i > 0 {
			b = append(b, ',')
		}
		b = ip.Append(b)
	}
	return b
}

// MaxLineBytes bounds a single input line; DNS names cap at 253 bytes but
// resolution lines carry many addresses. Exported so consumers that frame
// lines themselves (the ingest tailer) enforce the same cap.
const MaxLineBytes = 1 << 20

// scanLines iterates non-comment lines, reporting 1-based line numbers.
// Scanner-level failures (for example a line exceeding MaxLineBytes) are
// wrapped with the line number they occurred on, so no reader ever
// silently truncates its input.
func scanLines(r io.Reader, fn func(lineNo int, line string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(lineNo, line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("logio: line %d: %w", lineNo+1, err)
	}
	return nil
}

// scanLineBytes is scanLines over the scanner's buffer: line is valid
// only until fn returns, and costs no allocation. Only ReadActivity uses
// it, where most lines repeat a name already seen.
func scanLineBytes(r io.Reader, fn func(lineNo int, line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if err := fn(lineNo, line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("logio: line %d: %w", lineNo+1, err)
	}
	return nil
}

// ReadQueryLog streams (machine, domain) pairs into fn.
func ReadQueryLog(r io.Reader, fn func(machine, domain string)) error {
	return scanLines(r, func(lineNo int, line string) error {
		machine, rest, ok := strings.Cut(line, "\t")
		if !ok || machine == "" {
			return fmt.Errorf("logio: query log line %d: want machine<TAB>domain", lineNo)
		}
		domain, err := dnsutil.Normalize(rest)
		if err != nil {
			return fmt.Errorf("logio: query log line %d: %w", lineNo, err)
		}
		fn(machine, domain)
		return nil
	})
}

// WriteQuery writes one query-log line.
func WriteQuery(w io.Writer, machine, domain string) error {
	return writeLine(w, func(b []byte) []byte {
		b = append(b, machine...)
		b = append(b, '\t')
		return append(b, domain...)
	})
}

// ReadResolutions streams (domain, ips) records into fn.
func ReadResolutions(r io.Reader, fn func(domain string, ips []dnsutil.IPv4)) error {
	return scanLines(r, func(lineNo int, line string) error {
		name, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("logio: resolutions line %d: want domain<TAB>ip[,ip...]", lineNo)
		}
		domain, err := dnsutil.Normalize(name)
		if err != nil {
			return fmt.Errorf("logio: resolutions line %d: %w", lineNo, err)
		}
		ips, err := parseIPList(rest)
		if err != nil {
			return fmt.Errorf("logio: resolutions line %d: %w", lineNo, err)
		}
		fn(domain, ips)
		return nil
	})
}

// parseIPList parses a comma-separated IPv4 list.
func parseIPList(s string) ([]dnsutil.IPv4, error) {
	parts := strings.Split(s, ",")
	ips := make([]dnsutil.IPv4, 0, len(parts))
	for _, p := range parts {
		ip, err := dnsutil.ParseIPv4(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		ips = append(ips, ip)
	}
	return ips, nil
}

// WriteResolution writes one resolutions line.
func WriteResolution(w io.Writer, domain string, ips []dnsutil.IPv4) error {
	return writeLine(w, func(b []byte) []byte {
		b = append(b, domain...)
		b = append(b, '\t')
		return appendIPList(b, ips)
	})
}

// ReadBlacklist parses a blacklist file. The family and first-listed-day
// fields are optional (missing day means 0, i.e. "always known").
func ReadBlacklist(r io.Reader) (*intel.Blacklist, error) {
	bl := intel.NewBlacklist()
	err := scanLines(r, func(lineNo int, line string) error {
		fields := strings.Split(line, "\t")
		domain, err := dnsutil.Normalize(fields[0])
		if err != nil {
			return fmt.Errorf("logio: blacklist line %d: %w", lineNo, err)
		}
		e := intel.BlacklistEntry{Domain: domain}
		if len(fields) > 1 {
			e.Family = fields[1]
		}
		if len(fields) > 2 && fields[2] != "" {
			day, err := strconv.Atoi(fields[2])
			if err != nil {
				return fmt.Errorf("logio: blacklist line %d: bad day %q", lineNo, fields[2])
			}
			e.FirstListed = day
		}
		bl.Add(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bl, nil
}

// WriteBlacklist writes every entry of a blacklist.
func WriteBlacklist(w io.Writer, bl *intel.Blacklist) error {
	for _, d := range bl.Domains() {
		e, _ := bl.Entry(d)
		err := writeLine(w, func(b []byte) []byte {
			b = append(b, e.Domain...)
			b = append(b, '\t')
			b = append(b, e.Family...)
			b = append(b, '\t')
			return strconv.AppendInt(b, int64(e.FirstListed), 10)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadWhitelist parses a whitelist file (one e2LD per line).
func ReadWhitelist(r io.Reader) (*intel.Whitelist, error) {
	var e2lds []string
	err := scanLines(r, func(lineNo int, line string) error {
		d, err := dnsutil.Normalize(line)
		if err != nil {
			return fmt.Errorf("logio: whitelist line %d: %w", lineNo, err)
		}
		e2lds = append(e2lds, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return intel.NewWhitelist(e2lds), nil
}

// WriteWhitelist writes every e2LD of a whitelist.
func WriteWhitelist(w io.Writer, wl *intel.Whitelist) error {
	for _, d := range wl.E2LDs() {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	return nil
}

// ReadActivity streams day<TAB>domain activity marks into the log,
// tracking e2LDs via the suffix list. The activity file carries the
// per-day query-log digest the F2 features are measured against; it is
// finer-grained than the passive-DNS snapshots. Marks are collected per
// name (one map probe per line, the e2LD resolved once per name) and
// merged in one bulk call; a malformed line aborts the load, keeping the
// marks before it.
func ReadActivity(r io.Reader, log *activity.Log, suffixes *dnsutil.SuffixList) error {
	type name struct {
		days []int
		e2ld *[]int // the shared day list of the name's e2LD
	}
	names := make(map[string]*name)
	e2lds := make(map[string]*[]int)
	err := scanLineBytes(r, func(lineNo int, line []byte) error {
		dayStr, rest, ok := bytes.Cut(line, []byte{'\t'})
		if !ok {
			return fmt.Errorf("logio: activity line %d: want day<TAB>domain", lineNo)
		}
		day, err := strconv.Atoi(string(dayStr))
		if err != nil {
			return fmt.Errorf("logio: activity line %d: bad day %q", lineNo, dayStr)
		}
		// A line that spells a known name exactly is that name, already
		// validated: only a new spelling pays for Normalize and a string.
		n := names[string(rest)]
		if n == nil {
			domain, err := dnsutil.Normalize(string(rest))
			if err != nil {
				return fmt.Errorf("logio: activity line %d: %w", lineNo, err)
			}
			if n = names[domain]; n == nil {
				e2ld := suffixes.E2LD(domain)
				days := e2lds[e2ld]
				if days == nil {
					days = new([]int)
					e2lds[e2ld] = days
				}
				n = &name{e2ld: days}
				names[domain] = n
			}
		}
		n.days = appendDay(n.days, day)
		*n.e2ld = appendDay(*n.e2ld, day)
		return nil
	})
	domainDays := make(map[string][]int, len(names))
	for domain, n := range names {
		domainDays[domain] = n.days
	}
	e2ldDays := make(map[string][]int, len(e2lds))
	for e2ld, days := range e2lds {
		e2ldDays[e2ld] = *days
	}
	log.Merge(domainDays, e2ldDays)
	return err
}

// appendDay appends day unless it repeats the last one; activity.Log.Merge
// sorts whatever a file out of day order leaves.
func appendDay(days []int, day int) []int {
	if n := len(days); n > 0 && days[n-1] == day {
		return days
	}
	return append(days, day)
}

// WriteActivityMark writes one activity line.
func WriteActivityMark(w io.Writer, day int, domain string) error {
	return writeLine(w, func(b []byte) []byte {
		b = strconv.AppendInt(b, int64(day), 10)
		b = append(b, '\t')
		return append(b, domain...)
	})
}

// ReadPDNS streams passive-DNS records into a database. Consecutive
// lines of one domain (the file is grouped by domain) are stored as one
// run under one lock; records before a malformed line are kept.
func ReadPDNS(r io.Reader, db *pdns.DB) error {
	var (
		domain string
		run    []pdns.Observation
	)
	err := scanLines(r, func(lineNo int, line string) error {
		dayStr, rest, ok := strings.Cut(line, "\t")
		name, ipStr, ok2 := strings.Cut(rest, "\t")
		if !ok || !ok2 || strings.Contains(ipStr, "\t") {
			return fmt.Errorf("logio: pdns line %d: want day<TAB>domain<TAB>ip", lineNo)
		}
		day, err := strconv.Atoi(dayStr)
		if err != nil {
			return fmt.Errorf("logio: pdns line %d: bad day %q", lineNo, dayStr)
		}
		d := domain // the run's name spelled exactly: already normalized
		if len(run) == 0 || name != domain {
			if d, err = dnsutil.Normalize(name); err != nil {
				return fmt.Errorf("logio: pdns line %d: %w", lineNo, err)
			}
		}
		ip, err := dnsutil.ParseIPv4(ipStr)
		if err != nil {
			return fmt.Errorf("logio: pdns line %d: %w", lineNo, err)
		}
		if d != domain {
			if len(run) > 0 {
				db.AddRun(domain, run)
			}
			domain, run = d, run[:0]
		}
		run = append(run, pdns.Observation{Day: day, IP: ip})
		return nil
	})
	if len(run) > 0 {
		db.AddRun(domain, run)
	}
	return err
}

// WritePDNSRecord writes one passive-DNS line.
func WritePDNSRecord(w io.Writer, day int, domain string, ip dnsutil.IPv4) error {
	return writeLine(w, func(b []byte) []byte {
		b = strconv.AppendInt(b, int64(day), 10)
		b = append(b, '\t')
		b = append(b, domain...)
		b = append(b, '\t')
		return ip.Append(b)
	})
}

// EventKind distinguishes the two record kinds of the live event stream.
type EventKind uint8

// EventKind values.
const (
	// EventQuery is one observed (machine queried domain) pair.
	EventQuery EventKind = iota + 1
	// EventResolution is one observed domain->address resolution.
	EventResolution
)

// Event is one record of the live DNS event stream segugiod ingests.
type Event struct {
	Kind EventKind
	// MachineSym and DomainSym are the 1-based per-stream symbol ids the
	// segb1 stream gave Machine and Domain, or 0 when the name arrived as
	// a literal or from a source that numbers nothing (text lines, a
	// tailed file, trace_dns, WAL replay). Only EventDecoder sets them.
	// Within one stream a non-zero MachineSym always comes with the same
	// Machine and a non-zero DomainSym with the same Domain, so a consumer
	// may key per-stream caches on them; the two number spaces overlap
	// (one symbol can be a machine id in one record and a domain in
	// another, with different strings once the domain is normalized).
	MachineSym, DomainSym uint32
	// Day is the observation day the event belongs to; segugiod rotates
	// its behavior-graph epoch when it advances.
	Day int
	// Machine is set for EventQuery.
	Machine string
	Domain  string
	// IPs is set for EventResolution.
	IPs []dnsutil.IPv4
}

// ReadEvents streams event records into fn until EOF, a malformed line,
// or a non-nil error from fn (which is returned verbatim). WAL replay
// reads its records with it; live sources frame lines themselves (see
// ParseEvent). Format:
//
//	q<TAB>day<TAB>machine<TAB>domain
//	r<TAB>day<TAB>domain<TAB>ip[,ip...]
func ReadEvents(r io.Reader, fn func(Event) error) error {
	return scanLines(r, func(lineNo int, line string) error {
		e, err := ParseEvent(line)
		if err != nil {
			return fmt.Errorf("logio: event line %d: %w", lineNo, err)
		}
		return fn(e)
	})
}

// ParseEvent parses one event-stream line (already stripped of its
// newline, leading/trailing space, and comment filtering). Exported for
// consumers that frame lines themselves: ingest's line loop, which times
// the parse and decides per source whether a malformed line ends the
// stream or is skipped.
func ParseEvent(line string) (Event, error) {
	kind, rest, ok := strings.Cut(line, "\t")
	if !ok {
		return Event{}, fmt.Errorf("want q|r<TAB>day<TAB>...")
	}
	dayStr, rest, ok := strings.Cut(rest, "\t")
	if !ok {
		return Event{}, fmt.Errorf("want q|r<TAB>day<TAB>...")
	}
	day, err := strconv.Atoi(dayStr)
	if err != nil {
		return Event{}, fmt.Errorf("bad day %q", dayStr)
	}
	switch kind {
	case "q":
		machine, rest, ok := strings.Cut(rest, "\t")
		if !ok || machine == "" {
			return Event{}, fmt.Errorf("want q<TAB>day<TAB>machine<TAB>domain")
		}
		domain, err := dnsutil.Normalize(rest)
		if err != nil {
			return Event{}, err
		}
		return Event{Kind: EventQuery, Day: day, Machine: machine, Domain: domain}, nil
	case "r":
		name, rest, ok := strings.Cut(rest, "\t")
		if !ok {
			return Event{}, fmt.Errorf("want r<TAB>day<TAB>domain<TAB>ip[,ip...]")
		}
		domain, err := dnsutil.Normalize(name)
		if err != nil {
			return Event{}, err
		}
		ips, err := parseIPList(rest)
		if err != nil {
			return Event{}, err
		}
		return Event{Kind: EventResolution, Day: day, Domain: domain, IPs: ips}, nil
	default:
		return Event{}, fmt.Errorf("unknown kind %q (want q or r)", kind)
	}
}

// AppendEvent appends e's event-stream line, newline included, to dst and
// returns the extended buffer. An event of unknown kind appends nothing.
func AppendEvent(dst []byte, e Event) []byte {
	switch e.Kind {
	case EventQuery:
		dst = append(dst, 'q', '\t')
		dst = strconv.AppendInt(dst, int64(e.Day), 10)
		dst = append(dst, '\t')
		dst = append(dst, e.Machine...)
		dst = append(dst, '\t')
		dst = append(dst, e.Domain...)
	case EventResolution:
		dst = append(dst, 'r', '\t')
		dst = strconv.AppendInt(dst, int64(e.Day), 10)
		dst = append(dst, '\t')
		dst = append(dst, e.Domain...)
		dst = append(dst, '\t')
		dst = appendIPList(dst, e.IPs)
	default:
		return dst
	}
	return append(dst, '\n')
}

// WriteEvent writes one event-stream line.
func WriteEvent(w io.Writer, e Event) error {
	if e.Kind != EventQuery && e.Kind != EventResolution {
		return fmt.Errorf("logio: unknown event kind %d", e.Kind)
	}
	bp := lineBufPool.Get().(*[]byte)
	b := AppendEvent((*bp)[:0], e)
	_, err := w.Write(b)
	*bp = b[:0]
	lineBufPool.Put(bp)
	return err
}
