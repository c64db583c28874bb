package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/dnsutil"
	"segugio/internal/logio"
	"segugio/internal/obs"
)

// auditRecords fetches /v1/audit, optionally filtered to one domain.
func auditRecords(t *testing.T, base, domain string) []obs.AuditRecord {
	t.Helper()
	url := base + "/v1/audit"
	if domain != "" {
		url += "?domain=" + domain
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Records []obs.AuditRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("audit: bad JSON %q: %v", body, err)
	}
	return out.Records
}

// TestDaemonAuditsFinishedDay: a domain that scores above the threshold
// and is first applied after the day's last classify pass — and before
// the rotation that retires the day's graph — is still audited: exactly
// one new_detection record, on the day it was seen. The tick that finds
// the rotation behind it classifies the finished day and then, at once,
// the new one. When that first pass overruns its deadline instead, the
// finished day is still there for the pass after it. When a one-off
// POST /v1/classify is the call that is handed the finished day, the
// tracker learns of its detections as the audit log does. A daemon that
// rotates with nothing new audits nothing.
func TestDaemonAuditsFinishedDay(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	for _, abort := range []bool{false, true} {
		t.Run(fmt.Sprintf("firstPassAborts=%v", abort), func(t *testing.T) { testAuditsFinishedDay(t, abort, false) })
	}
	t.Run("finishedDayViaPOST", func(t *testing.T) { testAuditsFinishedDay(t, false, true) })
}

func testAuditsFinishedDay(t *testing.T, abort, viaPOST bool) {
	dir := t.TempDir()
	bl, wl := writeIntel(t, dir)
	model := trainModel(t, dir, bl, wl)
	logger, err := obs.NewLogger(&logBuffer{}, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No -classify-every: the test beats the tracker ticker by hand, so
	// it knows which events each pass has seen. stall makes the next pass
	// sit out its deadline.
	var stall atomic.Bool
	d, err := newDaemon(options{
		listen: "127.0.0.1:0", events: "tcp://127.0.0.1:0", model: model, dataDir: dir,
		network: "eod", startDay: e2eDay, workers: 3, queue: 8192, keepDays: 30,
		passDeadline: 2 * time.Second,
		passHook: func(ctx context.Context) {
			if stall.CompareAndSwap(true, false) {
				<-ctx.Done()
			}
		},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()
	base := "http://" + d.httpLn.Addr().String()
	eventsAddr := d.eventsLn.Addr().String()
	passes := func() float64 {
		v, _ := metricValue(t, base, `segugiod_stage_seconds_count{stage="tracker_pass"}`)
		return v
	}
	streamed := 0
	send := func(evs []logio.Event) {
		t.Helper()
		streamed += len(evs)
		streamEvents(t, eventsAddr, evs)
		pollMetric(t, base, "segugiod_ingest_events_total", func(v float64) bool { return v == float64(streamed) })
	}

	// The day's traffic, and the day's last pass.
	send(genEvents())
	d.trackerTick(ctx)
	live := len(auditRecords(t, base, ""))
	if live == 0 {
		t.Fatal("fixture: the baseline day produced no detection to audit")
	}

	// A late control domain: queried by the infected population after
	// that pass, then the first event of the next day rotates it away.
	const late = "late.gray.org"
	var tail []logio.Event
	for m := 0; m < 6; m++ {
		tail = append(tail, logio.Event{Kind: logio.EventQuery, Day: e2eDay, Machine: fmt.Sprintf("inf%02d", m), Domain: late})
	}
	tail = append(tail, logio.Event{Kind: logio.EventResolution, Day: e2eDay, Domain: late, IPs: []dnsutil.IPv4{0x0c000009}})
	send(tail)
	send([]logio.Event{{Kind: logio.EventQuery, Day: e2eDay + 1, Machine: "inf00", Domain: "c0.evil.net"}})
	pollMetric(t, base, "segugiod_ingest_rotations_total", func(v float64) bool { return v == 1 })
	if recs := auditRecords(t, base, late); len(recs) != 0 {
		t.Fatalf("the late domain was audited before any pass saw it: %+v", recs)
	}

	// The tick after the rotation runs two passes: the finished day's and
	// the new day's — or, when the first one overruns its deadline and is
	// served stale, that one and the finished day's again. A client's
	// classify-all that gets there before the tick is the finished day's
	// pass instead, tracker included.
	before := passes()
	if viaPOST {
		resp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var classified struct {
			Day int `json:"day"`
		}
		err = json.NewDecoder(resp.Body).Decode(&classified)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || classified.Day != e2eDay {
			t.Fatalf("classify-all after the rotation: status %d, day %d (%v), want 200 for the finished day %d",
				resp.StatusCode, classified.Day, err, e2eDay)
		}
		var tracked struct {
			Entries []struct {
				Domain       string `json:"domain"`
				LastDetected int    `json:"lastDetected"`
			} `json:"entries"`
		}
		if err := getJSONURL(base+"/v1/tracker", &tracked); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range tracked.Entries {
			found = found || e.Domain == late && e.LastDetected == e2eDay
		}
		if !found {
			t.Fatalf("/v1/tracker does not list %s on day %d after the pass that audited it: %+v", late, e2eDay, tracked.Entries)
		}
	} else {
		stall.Store(abort)
		d.trackerTick(ctx)
		if overruns, _ := metricValue(t, base, "segugiod_pass_deadline_exceeded_total"); (overruns == 1) != abort {
			t.Fatalf("%v passes overran their deadline, want one exactly when the test stalls one (%v)", overruns, abort)
		}
		if got := passes() - before; got != 2 {
			t.Fatalf("the tick after the rotation ran %v passes, want 2", got)
		}
	}
	recs := auditRecords(t, base, late)
	if len(recs) != 1 || recs[0].Reason != obs.ReasonNewDetection || recs[0].Day != e2eDay {
		t.Fatalf("audit records for %s = %+v, want exactly one new_detection on day %d", late, recs, e2eDay)
	}
	if total := len(auditRecords(t, base, "")); total != live+1 {
		t.Fatalf("audit log grew from %d to %d records across the rotation, want exactly the late domain's", live, total)
	}

	// Nothing new since the last pass, and the day ends: the finished day
	// is handed over with nothing to audit; later ticks stay on the live
	// day, one pass each.
	send([]logio.Event{{Kind: logio.EventQuery, Day: e2eDay + 2, Machine: "inf00", Domain: "c0.evil.net"}})
	pollMetric(t, base, "segugiod_ingest_rotations_total", func(v float64) bool { return v == 2 })
	d.trackerTick(ctx)
	before = passes()
	d.trackerTick(ctx)
	if got := passes() - before; got != 1 {
		t.Fatalf("a tick on a quiet day ran %v passes, want 1", got)
	}
	if total := len(auditRecords(t, base, "")); total != live+1 {
		t.Fatalf("an idle rotation audited something: %d records, want %d", total, live+1)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
