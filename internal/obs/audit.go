package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// AuditRecord is one entry of the detection audit trail: the full
// evidence behind a domain being flagged by a classify/tracker pass.
// Day is the event-clock timestamp (the observation day the score was
// measured on); Time is the wall clock for operators. Features is the
// complete F1/F2/F3 vector keyed by feature name, measured on the live
// labeled snapshot at GraphVersion. Machines holds up to K evidence
// machine IDs (MachinesTotal is the uncapped count).
type AuditRecord struct {
	Time          time.Time          `json:"ts"`
	Day           int                `json:"day"`
	Domain        string             `json:"domain"`
	Score         float64            `json:"score"`
	Threshold     float64            `json:"threshold"`
	Reason        string             `json:"reason"`
	GraphVersion  uint64             `json:"graphVersion"`
	ScoreVersion  uint64             `json:"scoreVersion"`
	Features      map[string]float64 `json:"features"`
	Machines      []string           `json:"machines,omitempty"`
	MachinesTotal int                `json:"machinesTotal"`
	// FirstSeenDay and DetectionLagDays carry detection freshness for
	// new_detection records: the event day the domain was first queried
	// on, and first_seen→first_detected in event days (Day −
	// FirstSeenDay) — the daemon-side analogue of the paper's
	// detection-latency-vs-blacklists metric. HasFreshness distinguishes
	// a genuine day-0 detection from a record predating this field (or a
	// domain whose first activity was trimmed from the activity log).
	FirstSeenDay     int  `json:"firstSeenDay,omitempty"`
	DetectionLagDays int  `json:"detectionLagDays,omitempty"`
	HasFreshness     bool `json:"hasFreshness,omitempty"`
	// Note carries free-form context for non-detection records (e.g. the
	// from/to states and triggering signal of a health transition).
	Note string `json:"note,omitempty"`
}

// Audit reasons.
const (
	// ReasonNewDetection marks a domain whose score crossed the
	// detection threshold in a classify/tracker pass (it was not detected
	// in the previous pass — or there was no previous pass).
	ReasonNewDetection = "new_detection"
	// ReasonHealthTransition records the daemon's health state machine
	// moving (healthy/degraded/overloaded); Note carries the from/to
	// states and the signal that caused the move.
	ReasonHealthTransition = "health_transition"
	// ReasonSLOBreach records an SLO burn-rate alert firing or clearing;
	// Note carries the objective name, windowed burn rates, and the
	// threshold that tripped.
	ReasonSLOBreach = "slo_breach"
)

// AuditConfig parameterizes an AuditLog.
type AuditConfig struct {
	// Dir is the directory audit JSONL files live in; "" keeps the trail
	// in memory only (the query ring still works, nothing persists).
	Dir string
	// MaxFileBytes rotates the current file once it exceeds this size
	// (default 8 MiB).
	MaxFileBytes int64
	// MaxFiles bounds the total file count, current plus rotated
	// (default 4). The oldest rotation is deleted to make room.
	MaxFiles int
	// RingSize bounds the in-memory query ring (default 1024).
	RingSize int
	// SyncEvery fsyncs after this many appended records (default 1 —
	// every record; detections are rare enough that durability wins).
	SyncEvery int
}

func (c *AuditConfig) fill() {
	if c.MaxFileBytes <= 0 {
		c.MaxFileBytes = 8 << 20
	}
	if c.MaxFiles <= 0 {
		c.MaxFiles = 4
	}
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 1
	}
}

// AuditLog is a bounded, rotating JSONL audit trail plus an in-memory
// ring answering "what was flagged recently / why was domain X flagged".
// Appends are serialized; queries copy. Safe for concurrent use.
type AuditLog struct {
	cfg AuditConfig

	mu        sync.Mutex
	f         *os.File
	size      int64
	unsynced  int
	ring      []AuditRecord // chronological; bounded by RingSize
	appended  uint64        // total records appended this process
	rotations uint64
}

// currentName is the live audit file; rotations move it to
// currentName.1, .2, ... oldest-last.
const currentName = "audit.jsonl"

// OpenAudit opens (or creates) the audit trail under cfg.Dir, reloading
// the query ring from the persisted files so a restarted daemon can
// still answer for records written before the restart. With an empty
// Dir the trail is memory-only.
func OpenAudit(cfg AuditConfig) (*AuditLog, error) {
	cfg.fill()
	a := &AuditLog{cfg: cfg}
	if cfg.Dir == "" {
		return a, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: audit dir: %w", err)
	}
	// Reload oldest-to-newest so the ring ends up holding the most
	// recent RingSize records in chronological order. Unparseable lines
	// (a torn tail from a crash mid-write) are skipped, not fatal.
	for k := cfg.MaxFiles - 1; k >= 1; k-- {
		a.loadFile(filepath.Join(cfg.Dir, fmt.Sprintf("%s.%d", currentName, k)))
	}
	path := filepath.Join(cfg.Dir, currentName)
	a.loadFile(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: audit open: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: audit stat: %w", err)
	}
	a.f, a.size = f, fi.Size()
	return a, nil
}

// loadFile folds one JSONL file into the ring; missing files and bad
// lines are ignored.
func (a *AuditLog) loadFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec AuditRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		a.push(rec)
	}
}

// push appends to the bounded ring; callers hold a.mu (or run before
// the log is shared).
func (a *AuditLog) push(recs ...AuditRecord) {
	a.ring = append(a.ring, recs...)
	if over := len(a.ring) - a.cfg.RingSize; over > 0 {
		a.ring = append(a.ring[:0], a.ring[over:]...)
	}
}

// Append writes one record to the trail; see AppendAll.
func (a *AuditLog) Append(rec AuditRecord) error {
	return a.AppendAll([]AuditRecord{rec})
}

// AppendAll writes a batch of records — one classify pass's detections —
// to the trail as a unit: under one lock the query ring and the Appended
// count advance once, so a reader sees none or all of the batch, and the
// lines reach the file in one buffered write (one more per rotation the
// batch crosses), byte for byte what one Append per record writes. The
// ring takes the records always; the disk, with rotation and batched
// fsync, when persistence is configured. The returned error reports a
// persistence failure; the records are queryable either way, so the
// daemon degrades to reduced durability instead of losing the evidence
// entirely.
func (a *AuditLog) AppendAll(recs []AuditRecord) error {
	now := time.Now().UTC()
	recs = append([]AuditRecord(nil), recs...)
	for i := range recs {
		if recs[i].Time.IsZero() {
			recs[i].Time = now
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.push(recs...)
	a.appended += uint64(len(recs))
	if a.f == nil {
		return nil
	}
	var buf []byte
	flush := func() error {
		n, err := a.f.Write(buf)
		a.size += int64(n)
		buf = buf[:0]
		if err != nil {
			return fmt.Errorf("obs: audit write: %w", err)
		}
		return nil
	}
	var marshalErr error
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			marshalErr = fmt.Errorf("obs: audit marshal: %w", err)
			continue
		}
		if written := a.size + int64(len(buf)); written > 0 && written+int64(len(line))+1 > a.cfg.MaxFileBytes {
			if err := flush(); err != nil {
				return err
			}
			if err := a.rotateLocked(); err != nil {
				return err
			}
		}
		buf = append(append(buf, line...), '\n')
		a.unsynced++
	}
	if err := flush(); err != nil {
		return err
	}
	if a.unsynced >= a.cfg.SyncEvery {
		if err := a.f.Sync(); err != nil {
			return fmt.Errorf("obs: audit sync: %w", err)
		}
		a.unsynced = 0
	}
	return marshalErr
}

// rotateLocked shifts audit.jsonl -> .1 -> .2 ... dropping the oldest,
// then reopens a fresh current file.
func (a *AuditLog) rotateLocked() error {
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("obs: audit rotate sync: %w", err)
	}
	if err := a.f.Close(); err != nil {
		return fmt.Errorf("obs: audit rotate close: %w", err)
	}
	name := func(k int) string {
		if k == 0 {
			return filepath.Join(a.cfg.Dir, currentName)
		}
		return filepath.Join(a.cfg.Dir, fmt.Sprintf("%s.%d", currentName, k))
	}
	os.Remove(name(a.cfg.MaxFiles - 1))
	for k := a.cfg.MaxFiles - 2; k >= 0; k-- {
		if _, err := os.Stat(name(k)); err == nil {
			os.Rename(name(k), name(k+1))
		}
	}
	f, err := os.OpenFile(name(0), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: audit rotate reopen: %w", err)
	}
	a.f, a.size, a.unsynced = f, 0, 0
	a.rotations++
	return nil
}

// Recent returns up to limit records, newest first (limit <= 0 means
// everything in the ring).
func (a *AuditLog) Recent(limit int) []AuditRecord {
	return a.filter(limit, func(AuditRecord) bool { return true })
}

// ForDomain returns up to limit records for one domain, newest first.
func (a *AuditLog) ForDomain(domain string, limit int) []AuditRecord {
	return a.filter(limit, func(r AuditRecord) bool { return r.Domain == domain })
}

// Query returns up to limit records, newest first: every record when
// domain is empty, else those for that domain.
func (a *AuditLog) Query(limit int, domain string) []AuditRecord {
	if domain == "" {
		return a.Recent(limit)
	}
	return a.ForDomain(domain, limit)
}

func (a *AuditLog) filter(limit int, keep func(AuditRecord) bool) []AuditRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	if limit <= 0 || limit > len(a.ring) {
		limit = len(a.ring)
	}
	out := make([]AuditRecord, 0, limit)
	for i := len(a.ring) - 1; i >= 0 && len(out) < limit; i-- {
		if keep(a.ring[i]) {
			out = append(out, a.ring[i])
		}
	}
	return out
}

// Len reports how many records the query ring holds.
func (a *AuditLog) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ring)
}

// Appended reports the total records appended by this process — the
// backing value for the segugiod_audit_records_total counter.
func (a *AuditLog) Appended() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appended
}

// Sync flushes buffered appends to stable storage.
func (a *AuditLog) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil || a.unsynced == 0 {
		return nil
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.unsynced = 0
	return nil
}

// Close fsyncs and closes the trail. The graceful-shutdown path calls
// this so a SIGTERM cannot lose acknowledged records. Idempotent.
func (a *AuditLog) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	err := a.f.Sync()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	a.f = nil
	return err
}
