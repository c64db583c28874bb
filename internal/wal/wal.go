// Package wal is an append-only, segment-based write-ahead log for
// segugiod's ingested event stream. Every record is framed with its
// length and a CRC-32C checksum, so a crash mid-write leaves at most a
// torn final record that Open detects and truncates away; everything
// before it replays byte-exactly. Appends are buffered and fsynced in
// batches (every SyncEvery records and/or an explicit Sync call), which
// is the standard durability/throughput trade: an unclean death loses at
// most the unsynced suffix, never acknowledged (synced) records.
//
// The log is a directory of fixed-prefix segment files
// (wal-00000001.seg, wal-00000002.seg, ...). A Pos names a byte offset
// inside a segment; the checkpointing layer records the Pos it has
// captured state up to, replays from it after a crash, and calls
// TruncateBefore to drop whole segments that precede it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"segugio/internal/metrics"
)

// Record framing: a fixed header followed by the payload.
//
//	[4] payload length (little endian uint32)
//	[4] CRC-32C of the payload (little endian uint32)
//	[n] payload
const headerSize = 8

// MaxRecordBytes bounds one record. It sits comfortably above logio's
// 1 MiB line cap so a record holding a buffered batch plus one
// maximum-size event line always fits (the ingest layer flushes its
// batch buffer long before this), while staying small enough that a
// corrupt length field cannot cause a gigantic allocation during
// replay. Exported so writers can size their batches against it.
const MaxRecordBytes = 2 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrTooLarge rejects a record above MaxRecordBytes.
	ErrTooLarge = errors.New("wal: record exceeds maximum size")
)

// Pos addresses a byte offset within a numbered segment. Positions are
// totally ordered; the zero Pos precedes every record ever written.
type Pos struct {
	Segment uint64
	Offset  int64
}

// Before reports whether p precedes q.
func (p Pos) Before(q Pos) bool {
	if p.Segment != q.Segment {
		return p.Segment < q.Segment
	}
	return p.Offset < q.Offset
}

// String renders the position for logs.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Segment, p.Offset) }

// Metrics bundles the instrumentation hooks the log feeds. Any field may
// be nil; nil metrics are simply not recorded.
type Metrics struct {
	// Appends counts records appended.
	Appends *metrics.Counter
	// Bytes counts payload+header bytes appended.
	Bytes *metrics.Counter
	// Syncs counts fsync batches.
	Syncs *metrics.Counter
	// TornRecords counts corrupt or torn trailing records truncated away
	// when the log was opened.
	TornRecords *metrics.Counter
	// Segments mirrors the live segment-file count.
	Segments *metrics.Gauge
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

func addN(c *metrics.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// Hooks are interposition points on the log's write path, used by the
// chaos harness to inject disk faults (ENOSPC writes, slow or failing
// fsyncs). Production opens leave them nil; the log's error semantics
// are identical either way — a failed write fails the Append, a failed
// sync leaves the unsynced batch pending so acknowledgements stall
// rather than lie.
type Hooks struct {
	// BeforeWrite runs before a record's bytes hit the file; a non-nil
	// error fails the Append with nothing written (the ENOSPC seam).
	BeforeWrite func(size int) error
	// BeforeSync runs before each fsync; it may sleep (slow-disk seam)
	// or return an error, which fails the sync and keeps the batch
	// unsynced.
	BeforeSync func() error
	// WrapRead wraps the reader every segment scan (Open's tail repair
	// and Replay) reads through: the transient read-error seam.
	WrapRead func(io.Reader) io.Reader
}

// Options parameterizes Open.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one reaches
	// this size (default 8 MiB).
	SegmentBytes int64
	// SyncEvery fsyncs after this many appended records (default 256).
	// 1 makes every record durable before Append returns; 0 keeps the
	// default. Periodic syncing is the caller's job (see Sync).
	SyncEvery int
	// Metrics hooks; may be nil.
	Metrics *Metrics
	// Hooks are fault-injection seams; may be nil.
	Hooks *Hooks
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options
	m    Metrics

	mu       sync.Mutex
	closed   bool
	segments []uint64 // sorted live segment numbers; last is active
	f        *os.File // active segment, positioned at end
	size     int64    // active segment size
	unsynced int      // records appended since the last fsync
	scratch  [headerSize]byte
}

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

func (l *Log) segmentPath(seq uint64) string {
	return filepath.Join(l.dir, segmentName(seq))
}

// parseSegmentName extracts the sequence number from a segment filename.
func parseSegmentName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open opens (or creates) the log rooted at dir. The final segment is
// scanned for a torn or corrupt tail, which is truncated away — the
// write path then resumes immediately after the last intact record.
// The number of records dropped this way is reported through
// Metrics.TornRecords.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if opts.Metrics != nil {
		l.m = *opts.Metrics
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			l.segments = append(l.segments, seq)
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i] < l.segments[j] })

	if len(l.segments) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		// Repair the active segment: find the end of its last intact
		// record and truncate whatever follows.
		seq := l.segments[len(l.segments)-1]
		valid, torn, err := l.scanSegment(seq, 0, nil)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(l.segmentPath(seq), os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if fi.Size() > valid {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		addN(l.m.TornRecords, int64(torn))
		l.f, l.size = f, valid
	}
	l.setSegmentsGauge()
	return l, nil
}

func (l *Log) setSegmentsGauge() {
	if l.m.Segments != nil {
		l.m.Segments.SetInt(int64(len(l.segments)))
	}
}

// openSegment creates and activates segment seq.
func (l *Log) openSegment(seq uint64) error {
	f, err := os.OpenFile(l.segmentPath(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			f.Close()
			return err
		}
		l.f.Close()
	}
	l.f, l.size = f, 0
	l.segments = append(l.segments, seq)
	return nil
}

// Append writes one record and returns the position of its first byte.
// The record is durable once a Sync (explicit or batch-triggered) has
// completed after the Append.
func (l *Log) Append(payload []byte) (Pos, error) {
	if len(payload) > MaxRecordBytes {
		return Pos{}, ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Pos{}, ErrClosed
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.openSegment(l.segments[len(l.segments)-1] + 1); err != nil {
			return Pos{}, err
		}
		l.setSegmentsGauge()
	}
	pos := Pos{Segment: l.segments[len(l.segments)-1], Offset: l.size}
	if l.opts.Hooks != nil && l.opts.Hooks.BeforeWrite != nil {
		if err := l.opts.Hooks.BeforeWrite(headerSize + len(payload)); err != nil {
			return Pos{}, err
		}
	}
	binary.LittleEndian.PutUint32(l.scratch[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.scratch[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.f.Write(l.scratch[:]); err != nil {
		return Pos{}, err
	}
	if _, err := l.f.Write(payload); err != nil {
		return Pos{}, err
	}
	l.size += headerSize + int64(len(payload))
	l.unsynced++
	inc(l.m.Appends)
	addN(l.m.Bytes, headerSize+int64(len(payload)))
	if l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return Pos{}, err
		}
	}
	return pos, nil
}

// End returns the position one past the last appended record: the point
// a checkpoint taken now should replay from.
func (l *Log) End() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return Pos{Segment: 1}
	}
	return Pos{Segment: l.segments[len(l.segments)-1], Offset: l.size}
}

// Sync makes every appended record durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.unsynced == 0 {
		return nil
	}
	if l.opts.Hooks != nil && l.opts.Hooks.BeforeSync != nil {
		if err := l.opts.Hooks.BeforeSync(); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.unsynced = 0
	inc(l.m.Syncs)
	return nil
}

// Replay streams every intact record at or after from, in order, into
// fn. A torn or corrupt record stops the replay without error — records
// past a corruption are unrecoverable by definition, and Open has
// already truncated the tail of the active segment. fn's payload slice
// is reused between calls; copy it to retain it.
func (l *Log) Replay(from Pos, fn func(pos Pos, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	segments := append([]uint64(nil), l.segments...)
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	for _, seq := range segments {
		if seq < from.Segment {
			continue
		}
		start := int64(0)
		if seq == from.Segment {
			start = from.Offset
		}
		_, _, err := l.scanSegment(seq, start, func(off int64, payload []byte) error {
			return fn(Pos{Segment: seq, Offset: off}, payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanSegment reads records from byte offset start, calling fn (when
// non-nil) for each intact record with its in-segment offset. It returns
// the offset just past the last intact record and how many torn/corrupt
// records were encountered (0 or 1: scanning stops at the first).
// Only I/O and callback errors are returned; corruption is not an error.
// A short read (io.EOF, io.ErrUnexpectedEOF) ends the log; any other read
// error is I/O, so a transient EIO is never repaired away as a torn tail.
func (l *Log) scanSegment(seq uint64, start int64, fn func(off int64, payload []byte) error) (validEnd int64, torn int, err error) {
	path := l.segmentPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := fi.Size()
	if start > size {
		return start, 0, fmt.Errorf("wal: replay offset %d past end of %s (%d bytes)", start, filepath.Base(path), size)
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var rd io.Reader = f
	if l.opts.Hooks != nil && l.opts.Hooks.WrapRead != nil {
		rd = l.opts.Hooks.WrapRead(f)
	}
	r := &countingReader{r: rd}
	var header [headerSize]byte
	payload := make([]byte, 0, 4096)
	off := start
	readErr := func(err error) error {
		return fmt.Errorf("wal: read %s at %d: %w", filepath.Base(path), off, err)
	}
	for {
		if _, err := io.ReadFull(r, header[:]); err == io.EOF {
			return off, 0, nil // clean end
		} else if err == io.ErrUnexpectedEOF {
			return off, 1, nil // torn header
		} else if err != nil {
			return off, 0, readErr(err)
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		want := binary.LittleEndian.Uint32(header[4:8])
		if n > MaxRecordBytes {
			return off, 1, nil // corrupt length field
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, 1, nil // torn payload
			}
			return off, 0, readErr(err)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return off, 1, nil // corrupt payload
		}
		if fn != nil {
			if err := fn(off, payload); err != nil {
				return off, 0, err
			}
		}
		off = start + r.n
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TruncateBefore removes whole segments every record of which precedes
// p — the space reclamation step after a checkpoint has captured all
// state up to p. The segment containing p (and the active segment) are
// always kept. It returns how many segment files were removed.
func (l *Log) TruncateBefore(p Pos) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segments) > 1 && l.segments[0] < p.Segment {
		if err := os.Remove(l.segmentPath(l.segments[0])); err != nil {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
	}
	l.setSegmentsGauge()
	return removed, nil
}

// Close syncs and closes the active segment. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
