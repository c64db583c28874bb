package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// pollEvery is the accounting poller's /metrics cadence; fencePoll
	// replaces it while the sender waits at a day fence or for quiescence.
	pollEvery = 100 * time.Millisecond
	fencePoll = 10 * time.Millisecond
	// stallAfter is how long no event may be accounted, while events are
	// outstanding, before the watchdog rings the doorbells; stallAbort is
	// how much longer it then waits before declaring the daemon wedged.
	stallAfter = time.Second
	stallAbort = 3 * time.Second
	// stallProbeEvents is how many already-stale events one stall probe
	// carries: distinct machine names, so whatever the hash and the shard
	// count every ring shard gets at least one.
	stallProbeEvents = 64
	// probeLimit is how long after its burst was written a planted probe
	// may take to reach the audit log before it counts as missed.
	probeLimit = 5 * time.Second
)

// errWedged aborts a run whose daemon made no progress even after a
// stall probe: slow is measured, wedged is a failure.
var errWedged = errors.New("daemon wedged: no event accounted for 3s after a stall probe")

// life drives one daemon process from exec to kill: the generator
// goroutine (sender), the poller, and optionally the serve client share
// it. Counters of a life start at zero, like the daemon's own.
type life struct {
	dm *daemon

	sent      atomic.Int64 // events written to event sockets, stall-probe events included
	accounted atomic.Int64 // applied+stale+dropped+shed at the last poll
	fast      atomic.Bool  // poll at fencePoll instead of pollEvery

	// pos is where the sender is: day index and events of that day
	// written so far. The serve client reads it to pick names the graph
	// already holds.
	posDay    atomic.Int32
	posEvents atomic.Int64
	// dayMu keeps domain GETs and day changes apart: the client holds it
	// for read across one GET, the sender for write while it moves pos to
	// the next day, so no GET for an old-day name is in flight once
	// new-day events are on the wire (it would answer 404).
	dayMu sync.RWMutex

	mu          sync.Mutex
	last        scrape    // newest /metrics scrape
	lastAckAt   time.Time // when the poller last saw accounted advance
	stallEvents int64     // stale events sent by stall probes
	stallProbes int
	gapMax      time.Duration
	queueMax    float64
	overloaded  time.Duration // time /metrics showed health_state == 2
	wmLagMax    float64
	planted     map[string]bool      // every probe domain of the stream
	probeSent   map[string]time.Time // probe domain -> send instant
	probeSeen   map[string]time.Time // probe domain -> audit ts
	auditSeen   float64              // audit_records_total at the last audit fetch
	warnings    []string
}

func newLife(dm *daemon, days []*dayStream) *life {
	l := &life{dm: dm, planted: map[string]bool{}, probeSent: map[string]time.Time{}, probeSeen: map[string]time.Time{}}
	for _, ds := range days {
		for _, p := range ds.probes {
			l.planted[p.Domain] = true
		}
	}
	return l
}

// poll runs until ctx ends. It is the only reader of /metrics and
// /v1/audit during a run, and the only place the watchdog lives.
func (l *life) poll(ctx context.Context) error {
	lastOK := time.Now()
	lastPoll := lastOK
	var lastTotal int64 = -1
	var shardEvents map[string]float64
	shardOK := map[string]time.Time{}
	probedAt := time.Time{}
	for {
		interval := pollEvery
		if l.fast.Load() {
			interval = fencePoll
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
		status, body, err := l.dm.get("/metrics")
		if err != nil || status != http.StatusOK {
			select {
			case <-l.dm.exited:
				return nil // killed on purpose or died; the workload decides which
			default:
			}
			continue
		}
		sc, err := parseScrape(body)
		if err != nil {
			return err
		}
		now := time.Now()
		total := sc.accounting().total()
		depths := sc.family("segugiod_shard_queue_depth")

		// Watchdog. Global rule: events outstanding and the accounted
		// total did not move. Shard rule: a ring shard holds events and
		// its applied counter did not move — under the drop policy the
		// total keeps moving (drops are accounted) while a parked worker
		// sits on a full ring, so the total alone cannot see that wedge.
		if total != lastTotal || l.sent.Load() <= total {
			lastOK = now
		}
		stuck := now.Sub(lastOK)
		cur := sc.family("segugiod_shard_events_total")
		for shard, depth := range depths {
			if depth == 0 || shardEvents == nil || cur[shard] != shardEvents[shard] {
				shardOK[shard] = now
			} else if d := now.Sub(shardOK[shard]); d > stuck {
				stuck = d
			}
		}
		shardEvents = cur

		l.mu.Lock()
		l.last = sc
		if total != lastTotal {
			l.lastAckAt = now
		}
		l.gapMax = max(l.gapMax, stuck)
		for _, d := range depths {
			l.queueMax = max(l.queueMax, d)
		}
		if sc.get("segugiod_health_state") >= 2 {
			l.overloaded += now.Sub(lastPoll)
		}
		for _, lag := range sc.family("segugiod_watermark_lag_seconds") {
			l.wmLagMax = max(l.wmLagMax, lag)
		}
		auditTotal := sc.get("segugiod_audit_records_total")
		fetchAudit := auditTotal != l.auditSeen
		l.mu.Unlock()
		l.accounted.Store(total)
		lastTotal, lastPoll = total, now

		switch {
		case stuck >= stallAfter && probedAt.IsZero():
			if err := l.stallProbe(); err != nil {
				return err
			}
			probedAt = now
		case stuck < stallAfter:
			probedAt = time.Time{}
		case now.Sub(probedAt) >= stallAbort:
			return errWedged
		}

		if fetchAudit {
			if err := l.fetchAudit(auditTotal); err != nil {
				return err
			}
		}
	}
}

// stallProbe opens a fresh event connection carrying already-stale
// events (day before -start-day), one or more per ring shard. A fresh
// source attaches empty rings, so its first publish on each shard rings
// that worker's doorbell; the events themselves are discarded as stale
// without touching the graph, and are accounted for as such.
func (l *life) stallProbe() error {
	conn, err := net.DialTimeout("tcp", l.dm.events, 5*time.Second)
	if err != nil {
		return fmt.Errorf("stall probe: %w", err)
	}
	defer conn.Close()
	var b strings.Builder
	l.mu.Lock()
	k := l.stallProbes
	l.stallProbes++
	l.stallEvents += stallProbeEvents
	l.warnings = append(l.warnings, fmt.Sprintf("stall probe #%d: no progress for %s with events outstanding", k+1, stallAfter))
	l.mu.Unlock()
	for i := 0; i < stallProbeEvents; i++ {
		fmt.Fprintf(&b, "q\t%d\tstall-%d-%d\tstall-probe.invalid\n", day0-1, k, i)
	}
	l.sent.Add(stallProbeEvents)
	fmt.Fprintf(os.Stderr, "WARNING: no event accounted for %s with events outstanding; sent stall probe #%d\n", stallAfter, k+1)
	_, err = conn.Write([]byte(b.String()))
	return err
}

// fetchAudit reads the newest audit records and notes when each planted
// probe was first reported as a new detection.
func (l *life) fetchAudit(total float64) error {
	l.mu.Lock()
	n := int(total-l.auditSeen) + 16
	l.mu.Unlock()
	status, body, err := l.dm.get("/v1/audit?limit=" + strconv.Itoa(min(max(n, 16), 1024)))
	if err != nil || status != http.StatusOK {
		return nil // daemon going away; the accounting gate will say so
	}
	var resp struct {
		Records []struct {
			Time   time.Time `json:"ts"`
			Domain string    `json:"domain"`
			Reason string    `json:"reason"`
		} `json:"records"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.auditSeen = total
	for _, r := range resp.Records {
		if r.Reason != "new_detection" {
			continue
		}
		if _, dup := l.probeSeen[r.Domain]; l.planted[r.Domain] && !dup {
			l.probeSeen[r.Domain] = r.Time
		}
	}
	return nil
}

// waitAccounted blocks until every event sent so far is accounted for.
// The watchdog inside poll bounds the wait: a wedged daemon ends ctx.
func (l *life) waitAccounted(ctx context.Context) error {
	l.fast.Store(true)
	defer l.fast.Store(false)
	for l.accounted.Load() < l.sent.Load() {
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// sender is the generator: one goroutine writing pre-encoded chunks to
// one connection per day.
type sender struct {
	l    *life
	days []*dayStream
	day  int // index into days
	next int // next chunk of days[day]
	conn net.Conn
	// fence holds the first event of day d+1 until every day-d event is
	// accounted for. Off only in the test that shows what it prevents.
	fence bool
	late  []float64 // ms each paced chunk was written after it was due
	// exhausted is set once the whole stream is written.
	exhausted bool
}

// sendOpts says how one send call paces itself and where it stops.
type sendOpts struct {
	// rate > 0 paces the writes open-loop at that many events per second
	// from the call's start; 0 writes as fast as the socket accepts.
	rate float64
	// deadline, when set, stops the call before the first chunk that
	// would be written after it — except that a day younger than
	// minDayEvents is first brought up to that many events, so the run
	// never ends on a graph too young to hold the day's GET targets.
	deadline     time.Time
	minDayEvents int64
	// segment stops the call at the end of the self-contained stream it
	// starts in.
	segment bool
	// dayEvents > 0 stops the call once that many events of the day it
	// starts in are written, or at that day's end.
	dayEvents int64
}

// send writes chunks until the stream ends (s.exhausted) or o says stop.
// It moves to the next day only when it is about to write that day's
// first chunk, so wherever it stops, s.day is a day it has sent from.
func (s *sender) send(ctx context.Context, o sendOpts) error {
	start := time.Now()
	var wrote int64
	for first := true; ; first = false {
		day, next := s.day, s.next
		if next == len(s.days[day].chunks) {
			day, next = day+1, 0
		}
		if day == len(s.days) {
			s.exhausted = true
			s.close()
			return nil
		}
		newDay := day != s.day
		ds := s.days[day]
		c := ds.chunks[next]
		if o.segment && !first && (c.fresh || newDay) {
			return nil
		}
		if o.dayEvents > 0 && (newDay || s.l.posEvents.Load() >= o.dayEvents) {
			return nil
		}
		due := start
		if o.rate > 0 {
			// The chunk's last event is due when the whole chunk is.
			due = start.Add(time.Duration(float64(wrote+int64(c.events)) / o.rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				select {
				case <-ctx.Done():
					return context.Cause(ctx)
				case <-time.After(d):
				}
			}
		}
		if !o.deadline.IsZero() && time.Now().After(o.deadline) &&
			(newDay || s.l.posEvents.Load() >= o.minDayEvents) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		if newDay {
			s.close()
			s.l.dayMu.Lock()
			s.day, s.next = day, 0
			s.l.posDay.Store(int32(day))
			s.l.posEvents.Store(0)
			s.l.dayMu.Unlock()
			if s.fence {
				if err := s.l.waitAccounted(ctx); err != nil {
					return err
				}
			}
		}
		if c.fresh {
			s.close() // a self-contained stream travels on its own connection
		}
		if s.conn == nil {
			conn, err := net.DialTimeout("tcp", s.l.dm.events, 5*time.Second)
			if err != nil {
				return err
			}
			s.conn = conn
		}
		if _, err := s.conn.Write(ds.buf[c.off:c.end]); err != nil {
			return fmt.Errorf("event write: %w", err)
		}
		done := time.Now()
		s.l.sent.Add(int64(c.events))
		wrote += int64(c.events)
		s.next++
		s.l.posEvents.Store(int64(c.dayEvents))
		at := done
		if o.rate > 0 {
			// Open loop: time from when the burst was due, so a stall
			// that delays the generator is charged to the daemon.
			s.late = append(s.late, float64(done.Sub(due))/float64(time.Millisecond))
			at = due
		}
		if c.probe >= 0 {
			s.l.mu.Lock()
			s.l.probeSent[ds.probes[c.probe].Domain] = at
			s.l.mu.Unlock()
		}
	}
}

func (s *sender) close() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// serveStats is what the closed-loop HTTP client measured.
type serveStats struct {
	domainMS   []float64
	classifyMS []float64
	bytes      int64
	errors     int
	requests   int
}

// namePool is one day's GET targets: names the graph holds once
// scale.poolAfter events of that day are applied, by label.
type namePool struct {
	unknown, known []string
}

// A client cycle is getsPerLoop domain GETs and one classify-all. The
// GETs are a fixed mix of the three paths a lookup can take, so that a
// percentile means the same thing on every run: a label-unknown domain
// with a cached score (80 % of the draws are label-unknown, as the issue
// asks), a label-unknown domain pruned out of the classified graph (no
// cached score: the daemon runs the classify pipeline for it alone), and
// a listed domain (no score at all).
const (
	getsPerLoop = 20
	getsPruned  = 2
	getsKnown   = 4
)

// targets is a namePool split by what the daemon's own classify-all
// says: scored names appear in it, pruned ones do not.
type targets struct {
	scored, pruned, known []string
}

// serve is the closed-loop HTTP client: one request in flight at all
// times, cycling getsPerLoop GET /v1/domains/{name} and one POST
// /v1/classify {}, until ctx ends or, with cycles > 0, that many cycles
// are done.
func (l *life) serve(ctx context.Context, pools []*namePool, sc scale, seed int64, cycles int, out *serveStats) {
	rng := rand.New(rand.NewSource(seed))
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	base := "http://" + l.dm.http
	do := func(method, path, body string, keep bool) (time.Duration, []byte, bool) {
		req, _ := http.NewRequestWithContext(ctx, method, base+path, strings.NewReader(body))
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				out.errors++
				out.requests++
			}
			return 0, nil, false
		}
		var raw []byte
		var n int64
		if keep {
			raw, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			n = int64(len(raw))
		} else {
			n, _ = discard(resp)
		}
		took := time.Since(t0)
		out.requests++
		out.bytes += n
		if resp.StatusCode/100 != 2 {
			out.errors++
			return 0, nil, false
		}
		return took, raw, true
	}
	split := map[int]*targets{}
	for ctx.Err() == nil {
		select {
		case <-l.dm.exited:
			return
		default:
		}
		day := int(l.posDay.Load())
		if l.posEvents.Load() < int64(sc.poolAfter) {
			// Just rotated: the new day's graph does not hold the pool yet.
			if cycles > 0 {
				return // nothing more is coming: no samples beats no end
			}
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		tg := split[day]
		if tg == nil {
			// First use of this day's pool: one classify-all (a request
			// like any other, but not a latency sample) says which names
			// carry a score.
			_, raw, ok := do(http.MethodPost, "/v1/classify", "{}", true)
			if !ok {
				continue
			}
			var reply classifyReply
			if json.Unmarshal(raw, &reply) != nil || reply.Day != day0+day {
				continue
			}
			tg = splitPool(pools[day], &reply)
			split[day] = tg
		}
		order := rng.Perm(getsPerLoop)
		for _, slot := range order {
			from := tg.scored
			switch {
			case slot < getsPruned:
				from = tg.pruned
			case slot < getsPruned+getsKnown:
				from = tg.known
			}
			name := from[rng.Intn(len(from))]
			l.dayMu.RLock()
			if ctx.Err() != nil || int(l.posDay.Load()) != day {
				l.dayMu.RUnlock()
				break // rotated; the old pool would 404
			}
			took, _, ok := do(http.MethodGet, "/v1/domains/"+name, "", false)
			l.dayMu.RUnlock()
			if ok {
				out.domainMS = append(out.domainMS, float64(took)/float64(time.Millisecond))
			}
		}
		if ctx.Err() != nil || int(l.posDay.Load()) != day {
			continue
		}
		if took, _, ok := do(http.MethodPost, "/v1/classify", "{}", false); ok {
			out.classifyMS = append(out.classifyMS, float64(took)/float64(time.Millisecond))
		}
		if cycles--; cycles == 0 {
			return
		}
	}
}

// splitPool sorts a day's pool by the path a lookup will take. A class
// with no member borrows the scored names, so a cycle is always whole.
func splitPool(p *namePool, reply *classifyReply) *targets {
	scored := make(map[string]bool, len(reply.Detections))
	for _, row := range reply.Detections {
		scored[row.Domain] = true
	}
	tg := &targets{known: p.known}
	for _, name := range p.unknown {
		if scored[name] {
			tg.scored = append(tg.scored, name)
		} else {
			tg.pruned = append(tg.pruned, name)
		}
	}
	if len(tg.scored) == 0 {
		tg.scored = p.unknown
	}
	if len(tg.pruned) == 0 {
		tg.pruned = tg.scored
	}
	if len(tg.known) == 0 {
		tg.known = tg.scored
	}
	return tg
}

const passSeries = `segugiod_stage_seconds_count{stage="tracker_pass"}`

// waitCounter blocks until the poller has seen series rise by n since
// the call. Two more tracker passes, for one, mean the last of them
// started after the call.
func (l *life) waitCounter(ctx context.Context, series string, n float64) error {
	l.fast.Store(true)
	defer l.fast.Store(false)
	for l.scrapeNow()[series] == 0 && l.scrapeNow()["segugiod_uptime_seconds"] == 0 {
		// No scrape yet: wait for the poller's first.
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(5 * time.Millisecond):
		}
	}
	base := l.scrapeNow().get(series)
	for l.scrapeNow().get(series) < base+n {
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return nil
}

// waitProbes gives every planted probe written in this life its chance
// to reach the audit log: it returns when all have, or two whole passes
// have run over the quiescent graph (what they did not flag, no later
// pass will), or the last probe's limit has passed.
func (l *life) waitProbes(ctx context.Context) error {
	base := l.scrapeNow().get(passSeries)
	for l.scrapeNow().get(passSeries) < base+2 {
		l.mu.Lock()
		pending := false
		for d, at := range l.probeSent {
			if _, seen := l.probeSeen[d]; !seen && time.Since(at) < probeLimit {
				pending = true
				break
			}
		}
		l.mu.Unlock()
		if !pending {
			return nil
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil
}

// scrapeNow returns the poller's newest scrape (never nil).
func (l *life) scrapeNow() scrape {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last == nil {
		return scrape{}
	}
	return l.last
}

// scrapeDirect fetches /metrics itself; for use when no poller runs.
func (l *life) scrapeDirect() (scrape, error) {
	status, body, err := l.dm.get("/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseScrape(body)
}
