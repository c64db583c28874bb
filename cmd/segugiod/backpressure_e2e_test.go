package main

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"segugio/internal/dnsutil"
	"segugio/internal/health"
	"segugio/internal/ingest"
	"segugio/internal/logio"
	"segugio/internal/obs"
)

// TestOverloadDoesNotThrottleReads: an overloaded daemon reads an event
// connection as fast as a healthy one. What a full shard ring does to its
// source is -shed-policy's business (block parks the reader, and the
// unread socket is the backpressure); the connection reader itself must
// add nothing. The same ≥ 64 MiB segb1 stream of stale-day events — they
// cost a decode and a counter, so the socket is what is being timed —
// goes down one loopback connection twice, once healthy and once with the
// health tracker forced overloaded. A per-read delay of even 5 ms would
// add 1 024 reads × 5 ms = 5.1 s to the second run.
func TestOverloadDoesNotThrottleReads(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	logger, err := obs.NewLogger(&logBuffer{}, obs.FormatText, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(options{
		listen: "127.0.0.1:0", events: "tcp://127.0.0.1:0", network: "bp", startDay: e2eDay,
		workers: 2, queue: 4096, keepDays: 30,
		shedPolicy:       ingest.ShedBlock,
		eventIdleTimeout: time.Minute, // the deadline reader is on the path, as by default
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.run(ctx, nil) }()
	base := "http://" + d.httpLn.Addr().String()

	// Few, fat events: 2 048 stale resolutions of 8 192 addresses each.
	const events, ipsPerEvent = 2048, 8192
	ips := make([]dnsutil.IPv4, ipsPerEvent)
	for i := range ips {
		ips[i] = dnsutil.IPv4(0x0a000000 + uint32(i))
	}
	var wire bytes.Buffer
	enc := logio.NewEventEncoder(&wire)
	for i := 0; i < events; i++ {
		if err := enc.Encode(logio.Event{Kind: logio.EventResolution, Day: e2eDay - 1, Domain: "stale.example.com", IPs: ips}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if wire.Len() < 64<<20 {
		t.Fatalf("stream is %d bytes, want at least 64 MiB", wire.Len())
	}

	sent := 0
	run := func() time.Duration {
		t.Helper()
		start := time.Now()
		conn, err := net.Dial("tcp", d.eventsLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		sent += events
		pollMetric(t, base, "segugiod_ingest_stale_total", func(v float64) bool { return v == float64(sent) })
		return time.Since(start)
	}
	run() // warm-up: first-connection allocations belong to neither side
	healthy := run()
	d.health.Set("forced", health.Overloaded, "test: forced overload")
	pollHealth(t, base, "overloaded")
	overloaded := run()
	if h := getHealth(t, base); h.Health != "overloaded" {
		t.Fatalf("health fell back to %q during the overloaded run", h.Health)
	}
	d.health.Clear("forced")

	// A ratio, so it holds under -race and on a slow host; the floor keeps
	// scheduling noise on a sub-second baseline from failing it.
	if limit := max(2*healthy, healthy+time.Second); overloaded > limit {
		t.Fatalf("overloaded run took %v, healthy run %v: the connection reader throttles under overload (limit %v)",
			overloaded, healthy, limit)
	}
	t.Logf("healthy %v, overloaded %v for %d MiB", healthy, overloaded, wire.Len()>>20)

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
