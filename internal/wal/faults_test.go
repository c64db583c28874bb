package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"segugio/internal/faultinject"
)

// diskHooks wires a faultinject.Disk into the WAL's injection seam.
func diskHooks(d *faultinject.Disk) *Hooks {
	return &Hooks{BeforeWrite: d.BeforeWrite, BeforeSync: d.BeforeSync}
}

// TestAppendENOSPCStallsAcks simulates a full disk: every Append during
// the fault must return the error (the caller's ack stalls — it is never
// told the record is durable), nothing half-written may surface on
// replay, and appends resume cleanly once space comes back.
func TestAppendENOSPCStallsAcks(t *testing.T) {
	disk := &faultinject.Disk{}
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SyncEvery: 1, Hooks: diskHooks(disk)})
	if _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}

	disk.FailWrites(faultinject.ErrNoSpace)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("lost")); !errors.Is(err, faultinject.ErrNoSpace) {
			t.Fatalf("append on full disk = %v, want ErrNoSpace", err)
		}
	}
	disk.WritesOK()

	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	want := []string{"before", "after"}
	got := collect(t, l, Pos{})
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery after the incident: reopen sees exactly the acked records.
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := collect(t, l2, Pos{}); len(got) != 2 {
		t.Fatalf("after reopen: %d records, want 2", len(got))
	}
}

// TestSyncFailureNeverLies drives the fsync path into failure: an Append
// whose sync fails must report the error (never a lying ack), and once
// the fault clears an explicit Sync makes the already-written batch
// durable and replayable.
func TestSyncFailureNeverLies(t *testing.T) {
	disk := &faultinject.Disk{}
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SyncEvery: 1, Hooks: diskHooks(disk)})

	syncErr := errors.New("injected fsync failure")
	disk.FailSyncs(syncErr)
	if _, err := l.Append([]byte("r1")); !errors.Is(err, syncErr) {
		t.Fatalf("append with failing fsync = %v, want the injected error (a success here is a lying ack)", err)
	}

	// The record bytes reached the file; only durability was withheld.
	// Clearing the fault and syncing recovers the batch.
	disk.SyncsOK()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, Pos{}); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("replay after recovery = %v, want [r1]", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := collect(t, l2, Pos{}); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("replay after reopen = %v, want [r1]", got)
	}
}

// TestSlowFsyncInflatesAppendLatency verifies the slow-disk injector
// actually bites on the sync path — the seam the chaos harness uses to
// drive the daemon's WAL-latency health signal.
func TestSlowFsyncInflatesAppendLatency(t *testing.T) {
	disk := &faultinject.Disk{}
	const delay = 30 * time.Millisecond
	l := mustOpen(t, t.TempDir(), Options{SyncEvery: 1, Hooks: diskHooks(disk)})
	defer l.Close()

	disk.SlowSyncs(delay)
	start := time.Now()
	if _, err := l.Append([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("append with slow fsync took %v, want >= %v", took, delay)
	}
	if disk.Syncs() == 0 {
		t.Fatal("sync hook never fired")
	}
	disk.SlowSyncs(0)
	if got := collect(t, l, Pos{}); len(got) != 1 {
		t.Fatalf("replay = %v, want one record", got)
	}
}

// TestReadErrorIsNotATornTail fails Open's tail-repair scan with an I/O
// error mid-header and mid-payload: a read error is not corruption, so
// Open must return it and leave every acknowledged record on disk for a
// later clean Open to replay.
func TestReadErrorIsNotATornTail(t *testing.T) {
	records := []string{"first", "second record", "third"}
	for _, tc := range []struct {
		name string
		at   int64 // bytes delivered before the fault
	}{
		{"mid-header", int64(headerSize+len(records[0])) + 3},
		{"mid-payload", int64(headerSize+len(records[0])+headerSize) + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{SyncEvery: 1})
			for _, r := range records {
				if _, err := l.Append([]byte(r)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			seg := filepath.Join(dir, segmentName(1))
			before, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}

			flaky := &Hooks{WrapRead: func(r io.Reader) io.Reader {
				return &faultinject.FlakyReader{R: r, FailAfter: tc.at}
			}}
			if l, err := Open(dir, Options{Hooks: flaky}); !errors.Is(err, faultinject.ErrInjected) {
				if l != nil {
					l.Close()
				}
				t.Fatalf("Open over a failing read = %v, want the injected error", err)
			}
			after, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() {
				t.Fatalf("segment size %d -> %d: a read error truncated acknowledged records", before.Size(), after.Size())
			}

			l = mustOpen(t, dir, Options{})
			defer l.Close()
			if got := collect(t, l, Pos{}); !reflect.DeepEqual(got, records) {
				t.Fatalf("replay after a clean Open = %q, want %q", got, records)
			}
		})
	}
}
