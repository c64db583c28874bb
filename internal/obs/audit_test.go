package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func rec(domain string, score float64) AuditRecord {
	return AuditRecord{
		Day: 42, Domain: domain, Score: score, Threshold: 0.5,
		Reason: ReasonNewDetection, GraphVersion: 7, ScoreVersion: 7,
		Features:      map[string]float64{"infected_machine_fraction": 1, "total_machines": 5},
		Machines:      []string{"inf00", "inf01"},
		MachinesTotal: 5,
	}
}

func TestAuditMemoryOnly(t *testing.T) {
	a, err := OpenAudit(AuditConfig{RingSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Append(rec(fmt.Sprintf("d%d.example.com", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 3 {
		t.Fatalf("ring len = %d, want bound 3", a.Len())
	}
	recent := a.Recent(0)
	if len(recent) != 3 || recent[0].Domain != "d4.example.com" || recent[2].Domain != "d2.example.com" {
		t.Fatalf("recent = %+v", recent)
	}
	if got := a.Recent(1); len(got) != 1 || got[0].Domain != "d4.example.com" {
		t.Fatalf("recent(1) = %+v", got)
	}
	if got := a.ForDomain("d3.example.com", 0); len(got) != 1 || got[0].Score != 3 {
		t.Fatalf("ForDomain = %+v", got)
	}
	if got := a.ForDomain("nope.example.com", 0); len(got) != 0 {
		t.Fatalf("ForDomain(nope) = %+v", got)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditLoadsRecordsWithDetectorMaps: audit files written by daemons
// that ran auxiliary detectors carry a per-detector "detectors" map in
// each record. The key is no longer part of AuditRecord; such a file must
// still load at start-up and its records still answer queries, so an
// existing state directory keeps its trail.
func TestAuditLoadsRecordsWithDetectorMaps(t *testing.T) {
	dir := t.TempDir()
	line := `{"ts":"2026-01-02T03:04:05Z","day":42,"domain":"cc.evil.net","score":0.93,"threshold":0.5,` +
		`"reason":"new_detection","graphVersion":7,"scoreVersion":7,"features":{"infected_machine_fraction":1},` +
		`"machines":["inf00"],"machinesTotal":5,` +
		`"detectors":{"forest":{"score":0.93,"detected":true},"lbp":{"score":0.61,"detected":false},"fused":{"score":0.93,"detected":true}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "audit.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAudit(AuditConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for name, got := range map[string][]AuditRecord{
		"Recent":    a.Recent(0),
		"ForDomain": a.ForDomain("cc.evil.net", 0),
	} {
		if len(got) != 1 || got[0].Domain != "cc.evil.net" || got[0].Score != 0.93 ||
			got[0].GraphVersion != 7 || got[0].MachinesTotal != 5 || got[0].Day != 42 {
			t.Fatalf("%s = %+v, want the record of the older file", name, got)
		}
	}
}

func TestAuditPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAudit(AuditConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r := rec("cc.evil.net", 0.93)
	if err := a.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// The persisted line is valid JSON with the full schema.
	data, err := os.ReadFile(filepath.Join(dir, "audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk AuditRecord
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatalf("audit line not JSON: %v (%s)", err, data)
	}
	if onDisk.Domain != "cc.evil.net" || onDisk.Score != 0.93 ||
		onDisk.Features["infected_machine_fraction"] != 1 || onDisk.Time.IsZero() {
		t.Fatalf("on-disk record = %+v", onDisk)
	}

	// A reopened log answers for records written before the restart.
	b, err := OpenAudit(AuditConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := b.ForDomain("cc.evil.net", 0)
	if len(got) != 1 || got[0].GraphVersion != 7 || got[0].MachinesTotal != 5 {
		t.Fatalf("reloaded = %+v", got)
	}
	// And keeps appending to the same file.
	if err := b.Append(rec("cc2.evil.net", 0.8)); err != nil {
		t.Fatal(err)
	}
	if n := b.Len(); n != 2 {
		t.Fatalf("ring after reload+append = %d", n)
	}
}

func TestAuditRotationBounded(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAudit(AuditConfig{Dir: dir, MaxFileBytes: 512, MaxFiles: 3, RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := a.Append(rec(fmt.Sprintf("dom%02d.example.com", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) > 3 {
		t.Fatalf("rotation kept %d files, want <= 3: %v", len(names), names)
	}
	found := false
	for _, n := range names {
		if n == "audit.jsonl.1" {
			found = true
		}
		if strings.HasSuffix(n, ".3") {
			t.Fatalf("rotation index beyond MaxFiles-1: %v", names)
		}
	}
	if !found {
		t.Fatalf("no rotated file present: %v", names)
	}
	// Every surviving line is intact JSON.
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r AuditRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s holds a bad line: %v", n, err)
			}
		}
		f.Close()
	}
}

func TestAuditReloadSkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAudit(AuditConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(rec("good.example.com", 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unterminated JSON fragment.
	f, err := os.OpenFile(filepath.Join(dir, "audit.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ts":"2026-01-01T00:00:00Z","domain":"torn.exa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, err := OpenAudit(AuditConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if n := b.Len(); n != 1 {
		t.Fatalf("ring after torn tail = %d, want 1", n)
	}
	if got := b.Recent(0); got[0].Domain != "good.example.com" {
		t.Fatalf("recent = %+v", got)
	}
}

func TestAuditSyncEveryBatches(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAudit(AuditConfig{Dir: dir, SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 3; i++ {
		if err := a.Append(rec("batched.example.com", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	unsynced := a.unsynced
	a.mu.Unlock()
	if unsynced != 3 {
		t.Fatalf("unsynced = %d, want 3 (batched)", unsynced)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	unsynced = a.unsynced
	a.mu.Unlock()
	if unsynced != 0 {
		t.Fatalf("unsynced after Sync = %d", unsynced)
	}
	if a.Appended() != 3 {
		t.Fatalf("Appended = %d", a.Appended())
	}
	// The record Time default is stamped at append.
	if got := a.Recent(1); got[0].Time.IsZero() || time.Since(got[0].Time) > time.Minute {
		t.Fatalf("append did not stamp time: %+v", got[0].Time)
	}
}

// TestAuditAppendAllMatchesAppends: a batch reaches the files byte for byte
// as one Append per record does — same lines, same rotation points — and
// leaves the same ring and count behind.
func TestAuditAppendAllMatchesAppends(t *testing.T) {
	ts := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var recs []AuditRecord
	for i := 0; i < 60; i++ {
		r := rec(fmt.Sprintf("dom%02d.example.com", i), float64(i)/60)
		r.Time = ts.Add(time.Duration(i) * time.Second)
		recs = append(recs, r)
	}
	files := func(dir string) map[string]string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(raw)
		}
		return out
	}
	// 1 KiB files rotate every few records, mid-batch; 6 files hold it all.
	cfg := AuditConfig{MaxFileBytes: 1024, MaxFiles: 6, RingSize: 16, SyncEvery: 4}
	one, batch := cfg, cfg
	one.Dir, batch.Dir = t.TempDir(), t.TempDir()
	a, err := OpenAudit(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenAudit(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := a.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Three batches, one of them empty, with the file already part full.
	for _, part := range [][]AuditRecord{recs[:7], nil, recs[7:59], recs[59:]} {
		if err := b.AppendAll(part); err != nil {
			t.Fatal(err)
		}
	}
	if a.Appended() != b.Appended() || a.Len() != b.Len() {
		t.Fatalf("appended/len: %d/%d one by one, %d/%d batched", a.Appended(), a.Len(), b.Appended(), b.Len())
	}
	for i, r := range a.Recent(0) {
		if got := b.Recent(0)[i]; got.Domain != r.Domain || !got.Time.Equal(r.Time) {
			t.Fatalf("ring entry %d: %s one by one, %s batched", i, r.Domain, got.Domain)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	want, got := files(one.Dir), files(batch.Dir)
	if len(want) < 3 {
		t.Fatalf("fixture: only %d files, the batch crossed no rotation", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%d files batched, %d one by one", len(got), len(want))
	}
	for name, body := range want {
		if got[name] != body {
			t.Fatalf("%s differs:\none by one:\n%s\nbatched:\n%s", name, body, got[name])
		}
	}
}

// TestAuditAppendAllIsAtomicToReaders: a reader polling the count and the
// ring beside 300-record batches only ever sees whole batches — the count
// a multiple of the batch size, and the newest count-seen records all
// there to be read.
func TestAuditAppendAllIsAtomicToReaders(t *testing.T) {
	const batch, batches = 300, 20
	a, err := OpenAudit(AuditConfig{Dir: t.TempDir(), RingSize: 2 * batch, SyncEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		recs := make([]AuditRecord, batch)
		for n := 0; n < batches; n++ {
			for i := range recs {
				recs[i] = rec(fmt.Sprintf("b%02d-%03d.example.com", n, i), 0.9)
			}
			if err := a.AppendAll(recs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := uint64(0)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		total := a.Appended()
		if total%batch != 0 {
			t.Fatalf("reader saw %d records appended: not a batch boundary", total)
		}
		// What the bench poller does: ask for what is new, plus slack.
		got := a.Recent(int(total-seen) + 16)
		if fresh := int(total - seen); fresh <= 2*batch && len(got) < fresh {
			t.Fatalf("count moved %d -> %d but only %d records were readable", seen, total, len(got))
		}
		seen = total
	}
	if seen != batch*batches {
		t.Fatalf("reader ended at %d records, want %d", seen, batch*batches)
	}
}
