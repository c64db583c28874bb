package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segugio/internal/health"
)

// TestClassifyDeadlineServesStale drives the deadline-bounded pass
// machinery end to end: a pass that blows -pass-deadline is cancelled,
// the caller gets the last-good result stale-marked (HTTP 200, never a
// wedge), the overrun counter climbs, the watchdog escalates to
// Degraded after passOverrunEscalate consecutive overruns, and one
// completed pass clears it all.
func TestClassifyDeadlineServesStale(t *testing.T) {
	var stall atomic.Bool
	h := health.New(health.Config{})
	ts := newTestServer(t, func(cfg *Config) {
		cfg.PassDeadline = 20 * time.Millisecond
		cfg.Health = h
		cfg.PassHook = func(ctx context.Context) {
			if stall.Load() {
				<-ctx.Done() // burn the whole pass budget
			}
		}
	})

	classify := func() (int, ClassifyResponse) {
		t.Helper()
		var resp ClassifyResponse
		code, _ := postJSON(t, ts.URL+"/v1/classify", nil, &resp)
		return code, resp
	}

	// Warm pass: completes inside the deadline, nothing stale.
	code, warm := classify()
	if code != http.StatusOK || warm.Stale {
		t.Fatalf("warm pass: code=%d stale=%v", code, warm.Stale)
	}
	if n := ts.srv.passDeadlineExceeded.Value(); n != 0 {
		t.Fatalf("warm pass bumped deadline counter to %d", n)
	}

	// Overrunning passes: each is cancelled and served from last-good.
	stall.Store(true)
	for i := 1; i <= passOverrunEscalate; i++ {
		code, resp := classify()
		if code != http.StatusOK {
			t.Fatalf("overrun %d: code %d, want 200 from last-good cache", i, code)
		}
		if !resp.Stale {
			t.Fatalf("overrun %d: response not stale-marked", i)
		}
		if resp.GraphVersion != warm.GraphVersion || len(resp.Detections) != len(warm.Detections) {
			t.Fatalf("overrun %d: stale result diverged from last-good (version %d vs %d, %d vs %d rows)",
				i, resp.GraphVersion, warm.GraphVersion, len(resp.Detections), len(warm.Detections))
		}
	}
	if n := ts.srv.passDeadlineExceeded.Value(); n != passOverrunEscalate {
		t.Fatalf("deadline counter = %d, want %d", n, passOverrunEscalate)
	}
	if st := h.State(); st != health.Degraded {
		t.Fatalf("after %d consecutive overruns state = %v, want Degraded", passOverrunEscalate, st)
	}

	// Recovery: one completed pass resets the watchdog and clears the
	// signal.
	stall.Store(false)
	code, resp := classify()
	if code != http.StatusOK || resp.Stale {
		t.Fatalf("recovery pass: code=%d stale=%v", code, resp.Stale)
	}
	if st := h.State(); st != health.Healthy {
		t.Fatalf("state after recovery = %v, want Healthy", st)
	}
}

// TestClassifyDeadlineNoLastGood: the very first pass blowing its
// deadline has no cached result to fall back on — the endpoint must
// answer 503 with a Retry-After hint instead of hanging or lying.
func TestClassifyDeadlineNoLastGood(t *testing.T) {
	ts := newTestServer(t, func(cfg *Config) {
		cfg.PassDeadline = 10 * time.Millisecond
		cfg.PassHook = func(ctx context.Context) { <-ctx.Done() }
	})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (no last-good pass exists)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestAdmissionControlRejectsExcess saturates a MaxInflight=1 server
// with one in-flight classify: the next classify must be rejected
// immediately (429 healthy, 503 overloaded, both with Retry-After), the
// rejection counters must record it, and the probe endpoints must stay
// exempt so operators can always see in.
func TestAdmissionControlRejectsExcess(t *testing.T) {
	h := health.New(health.Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var hold atomic.Bool
	ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxInflight = 1
		cfg.Health = h
		cfg.PassHook = func(ctx context.Context) {
			if hold.Load() {
				entered <- struct{}{}
				<-release
			}
		}
	})

	hold.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		http.Post(ts.URL+"/v1/classify", "application/json", nil)
	}()
	<-entered // the one slot is now held mid-pass

	// Healthy: excess load answers 429 Too Many Requests.
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated classify: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\"", got)
	}
	if n := ts.srv.httpRejected["429"].Value(); n != 1 {
		t.Fatalf("rejected{code=429} = %d, want 1", n)
	}

	// Overloaded: same rejection escalates to 503 with a longer backoff.
	h.Set("test", health.Overloaded, "forced for test")
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded saturated classify: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("503 Retry-After = %q, want \"5\"", got)
	}
	if n := ts.srv.httpRejected["503"].Value(); n != 1 {
		t.Fatalf("rejected{code=503} = %d, want 1", n)
	}
	h.Clear("test")

	// Probes are exempt from admission control: liveness must answer even
	// with every worker slot occupied.
	var hr HealthResponse
	if code, raw := getJSON(t, ts.URL+"/healthz", &hr); code != http.StatusOK {
		t.Fatalf("healthz while saturated: %d %s", code, raw)
	}
	if hr.Status != "ok" {
		t.Fatalf("healthz status %q", hr.Status)
	}

	hold.Store(false)
	close(release)
	<-done

	// Slot free again: classify admits normally.
	var ok ClassifyResponse
	if code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &ok); code != http.StatusOK {
		t.Fatalf("post-release classify: %d %s", code, raw)
	}
}

// TestReadyzReflectsHealth: readiness tracks the state machine — serving
// while healthy or degraded, 503 once overloaded so the balancer drains
// traffic, back to 200 when pressure clears.
func TestReadyzReflectsHealth(t *testing.T) {
	h := health.New(health.Config{})
	ts := newTestServer(t, func(cfg *Config) { cfg.Health = h })

	var rr ReadyResponse
	if code, raw := getJSON(t, ts.URL+"/readyz", &rr); code != http.StatusOK || !rr.Ready {
		t.Fatalf("healthy readyz: code=%d ready=%v (%s)", code, rr.Ready, raw)
	}

	h.Set("sig", health.Degraded, "degraded still serves")
	if code, _ := getJSON(t, ts.URL+"/readyz", &rr); code != http.StatusOK || rr.Health != "degraded" {
		t.Fatalf("degraded readyz: code=%d health=%q, want 200/degraded", code, rr.Health)
	}

	h.Set("sig", health.Overloaded, "stop routing here")
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded readyz: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("overloaded readyz Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	h.Clear("sig")
	if code, _ := getJSON(t, ts.URL+"/readyz", &rr); code != http.StatusOK || !rr.Ready {
		t.Fatalf("recovered readyz: code=%d ready=%v", code, rr.Ready)
	}

	// /healthz mirrors the state machine in its health field without
	// breaking the liveness contract (status stays "ok").
	var hr HealthResponse
	if code, _ := getJSON(t, ts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" || hr.Health != "healthy" {
		t.Fatalf("healthz: code=%d status=%q health=%q", code, hr.Status, hr.Health)
	}
}

// TestReloadSerializesWithPass hammers the model reload (POST
// /v1/reload) beside concurrent classify-all passes. A reload swaps the
// loaded model that passes read; under -race, a swap that is not safe
// against an in-flight pass fails this test, and every pass and reload
// must succeed.
func TestReloadSerializesWithPass(t *testing.T) {
	ts := newTestServer(t, nil)

	const (
		passes  = 30
		reloads = 30
	)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < passes; i++ {
			var resp ClassifyResponse
			if code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &resp); code != http.StatusOK {
				t.Errorf("classify %d: %d %s", i, code, raw)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			var resp ReloadResponse
			if code, raw := postJSON(t, ts.URL+"/v1/reload", nil, &resp); code != http.StatusOK {
				t.Errorf("reload %d: %d %s", i, code, raw)
				return
			}
		}
	}()
	wg.Wait()

	// The last swapped-in model still serves a full pass.
	var resp ClassifyResponse
	if code, raw := postJSON(t, ts.URL+"/v1/classify", nil, &resp); code != http.StatusOK {
		t.Fatalf("post-hammer classify: %d %s", code, raw)
	}
}
