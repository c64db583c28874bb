// Binary event framing for the live event stream — the wire-speed
// counterpart to the text format in logio.go.
//
// A binary stream is the 5-byte magic "segb1" followed by frames:
//
//	frame   = uvarint(len(payload)) payload crc32c-LE(payload)
//	payload = record...
//	record  = 0x01 varint(day) ref(machine) ref(domain)           query
//	        | 0x02 varint(day) ref(domain) uvarint(n) n×ipv4-BE   resolution
//	ref     = uvarint(0) uvarint(len) bytes      literal, not interned
//	        | uvarint(1) uvarint(len) bytes      define: intern, next id
//	        | uvarint(k) with k >= 2             symbol id k-2
//
// Decoded events carry the symbol each name came through (Event.MachineSym
// and DomainSym, the id plus one; 0 for a literal), so a consumer can
// resolve a name once per symbol instead of once per event.
//
// The symbol table is per stream and append-only: each define is
// assigned the next sequential id on both sides, so steady-state frames
// carry small integer ids instead of repeated machine/domain strings.
// The encoder stops interning past maxSymbols entries or maxSymbolBytes
// of string data and falls back to literals; the decoder enforces the
// same caps, so a well-formed stream never trips them.
//
// Error handling is frame-granular: a CRC mismatch or a malformed
// record skips the rest of that frame (reported through OnFrameError,
// counted in FramesSkipped) and decoding continues with the next frame.
// Only a frame length outside (0, MaxFrameBytes] — after which record
// boundaries cannot be trusted — or an I/O error aborts the stream. A
// truncated frame at EOF is reported as a frame error and the stream
// ends cleanly, so a torn tail (crashed writer) never wedges a source.
package logio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"segugio/internal/dnsutil"
)

// BinaryMagic opens every binary event stream — the sniffing handle for
// auto-detecting text vs binary sources.
const BinaryMagic = "segb1"

// MaxFrameBytes bounds one frame's payload. A frame length outside
// (0, MaxFrameBytes] means the stream is desynced and aborts decoding.
const MaxFrameBytes = 1 << 20

// FrameTargetBytes is the payload size at which the encoder flushes a
// frame on its own; small enough to keep per-frame latency low, large
// enough to amortize the length/CRC framing and the decoder's
// per-frame bookkeeping.
const FrameTargetBytes = 32 << 10

// Symbol-table caps, enforced identically by encoder and decoder.
const (
	maxSymbols     = 1 << 18
	maxSymbolBytes = 8 << 20
)

// Record opcodes.
const (
	opQuery      = 0x01
	opResolution = 0x02
)

// Reference-encoding tags (see package comment).
const (
	refLiteral = 0
	refDefine  = 1
	refBase    = 2 // tag k >= refBase is symbol id k-refBase
)

// ErrBadFrame tags frame-granular decode failures: CRC mismatches,
// malformed records, unknown symbol ids, truncated tails. Errors
// wrapping it are reported through OnFrameError and skipped; they never
// abort the stream.
var ErrBadFrame = errors.New("logio: malformed frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func frameErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// framePool recycles frame payload buffers across decoder lifetimes
// (one decoder per connection; connections churn).
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, FrameTargetBytes+frameSlack)
	return &b
}}

const frameSlack = 4 << 10

// EventEncoder writes events as a binary stream. Not safe for
// concurrent use. Flush (or a full frame) is what actually writes;
// callers must Flush before closing the destination.
type EventEncoder struct {
	w        io.Writer
	payload  []byte
	syms     map[string]uint64
	symBytes int
	started  bool // magic written
	varbuf   [binary.MaxVarintLen64]byte
}

// NewEventEncoder builds an encoder writing to w.
func NewEventEncoder(w io.Writer) *EventEncoder {
	return &EventEncoder{
		w:       w,
		payload: make([]byte, 0, FrameTargetBytes+frameSlack),
		syms:    make(map[string]uint64),
	}
}

// Reset discards all encoder state — symbol table included — and
// retargets w, so the next stream is self-contained.
func (enc *EventEncoder) Reset(w io.Writer) {
	enc.w = w
	enc.payload = enc.payload[:0]
	clear(enc.syms)
	enc.symBytes = 0
	enc.started = false
}

// Encode appends one event to the stream, flushing a frame whenever the
// payload reaches FrameTargetBytes.
func (enc *EventEncoder) Encode(e Event) error {
	// Worst-case record size, so a flush decision never needs to roll
	// back a half-encoded record (symbol defines are not undoable).
	bound := 64 + len(e.Machine) + len(e.Domain) + 4*len(e.IPs)
	if bound > MaxFrameBytes {
		return fmt.Errorf("logio: event too large for one frame (%d byte bound)", bound)
	}
	if len(enc.payload) > 0 && len(enc.payload)+bound > MaxFrameBytes {
		if err := enc.Flush(); err != nil {
			return err
		}
	}
	switch e.Kind {
	case EventQuery:
		enc.payload = append(enc.payload, opQuery)
		enc.payload = binary.AppendVarint(enc.payload, int64(e.Day))
		enc.appendRef(e.Machine)
		enc.appendRef(e.Domain)
	case EventResolution:
		enc.payload = append(enc.payload, opResolution)
		enc.payload = binary.AppendVarint(enc.payload, int64(e.Day))
		enc.appendRef(e.Domain)
		enc.payload = binary.AppendUvarint(enc.payload, uint64(len(e.IPs)))
		for _, ip := range e.IPs {
			enc.payload = binary.BigEndian.AppendUint32(enc.payload, uint32(ip))
		}
	default:
		return fmt.Errorf("logio: unknown event kind %d", e.Kind)
	}
	if len(enc.payload) >= FrameTargetBytes {
		return enc.Flush()
	}
	return nil
}

// appendRef encodes one string reference, interning when under the caps.
func (enc *EventEncoder) appendRef(s string) {
	if id, ok := enc.syms[s]; ok {
		enc.payload = binary.AppendUvarint(enc.payload, id+refBase)
		return
	}
	if len(enc.syms) < maxSymbols && enc.symBytes+len(s) <= maxSymbolBytes {
		enc.syms[s] = uint64(len(enc.syms))
		enc.symBytes += len(s)
		enc.payload = binary.AppendUvarint(enc.payload, refDefine)
	} else {
		enc.payload = binary.AppendUvarint(enc.payload, refLiteral)
	}
	enc.payload = binary.AppendUvarint(enc.payload, uint64(len(s)))
	enc.payload = append(enc.payload, s...)
}

// Flush writes the in-progress frame (magic first, on the first flush).
// A no-op when nothing is buffered.
func (enc *EventEncoder) Flush() error {
	if len(enc.payload) == 0 {
		return nil
	}
	if !enc.started {
		if _, err := io.WriteString(enc.w, BinaryMagic); err != nil {
			return err
		}
		enc.started = true
	}
	n := binary.PutUvarint(enc.varbuf[:], uint64(len(enc.payload)))
	if _, err := enc.w.Write(enc.varbuf[:n]); err != nil {
		return err
	}
	// CRC travels after the payload so the whole frame body is built
	// append-only; reuse the payload buffer's tail for the trailer.
	sum := crc32.Checksum(enc.payload, crcTable)
	enc.payload = binary.LittleEndian.AppendUint32(enc.payload, sum)
	_, err := enc.w.Write(enc.payload)
	enc.payload = enc.payload[:0]
	return err
}

// symEntry is one interned string on the decode side. Domain
// normalization is validated lazily, once per symbol, and cached.
type symEntry struct {
	raw        string
	dom        string
	domErr     error
	domChecked bool
}

// EventDecoder reads a binary event stream. Not safe for concurrent
// use. The *Event handed to the callback is reused between records —
// consumers that retain events past the callback must copy the struct
// (the strings and the IP slice backing array stay valid; they are
// never reused).
type EventDecoder struct {
	// OnFrameError, when non-nil, receives every frame-granular decode
	// failure (the frame is skipped and decoding continues). The ingest
	// layer counts these as parse errors.
	OnFrameError func(error)
	// AfterFrame, when non-nil, runs after each frame fully decodes (or
	// is abandoned mid-frame on a record error) with the number of
	// records delivered and how long decoding them took, callback time
	// included — the batch-flush and parse-metering hook.
	AfterFrame func(records int, took time.Duration)
	// FramesSkipped counts frames dropped for frame-granular errors.
	FramesSkipped int

	r        *bufio.Reader
	syms     []symEntry
	symBytes int
	payloadP *[]byte
	ipArena  []dnsutil.IPv4
	ev       Event
}

// NewEventDecoder builds a decoder reading from r. Call Release when
// done to recycle internal buffers.
func NewEventDecoder(r io.Reader) *EventDecoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	return &EventDecoder{r: br, payloadP: framePool.Get().(*[]byte)}
}

// Release returns pooled buffers. The decoder is unusable afterwards.
func (d *EventDecoder) Release() {
	if d.payloadP != nil {
		*d.payloadP = (*d.payloadP)[:0]
		framePool.Put(d.payloadP)
		d.payloadP = nil
	}
	d.syms = nil
	d.ipArena = nil
}

// ipAlloc carves an n-address slice out of the arena. Chunks are never
// reused — events handed downstream keep referencing them safely — so
// the steady-state cost is one allocation per arena chunk, not per
// event.
func (d *EventDecoder) ipAlloc(n int) []dnsutil.IPv4 {
	if n > cap(d.ipArena)-len(d.ipArena) {
		size := 4096
		if n > size {
			size = n
		}
		d.ipArena = make([]dnsutil.IPv4, 0, size)
	}
	s := d.ipArena[len(d.ipArena) : len(d.ipArena)+n : len(d.ipArena)+n]
	d.ipArena = d.ipArena[:len(d.ipArena)+n]
	return s
}

// Run decodes the stream, invoking fn for every record until EOF or an
// unrecoverable error. fn's error aborts decoding and is returned
// verbatim (so consumers can abort on shutdown). Frame-granular
// failures are skipped, not returned — see OnFrameError.
func (d *EventDecoder) Run(fn func(*Event) error) error {
	var magic [len(BinaryMagic)]byte
	if _, err := io.ReadFull(d.r, magic[:]); err != nil {
		if err == io.EOF {
			return nil // empty stream
		}
		return fmt.Errorf("logio: binary stream: reading magic: %w", err)
	}
	if string(magic[:]) != BinaryMagic {
		return fmt.Errorf("logio: binary stream: bad magic %q", magic[:])
	}
	for {
		ln, err := binary.ReadUvarint(d.r)
		if err == io.EOF {
			return nil
		}
		if err == io.ErrUnexpectedEOF {
			d.frameError(frameErrf("torn frame length at EOF"))
			return nil
		}
		if err != nil {
			return fmt.Errorf("logio: binary stream: %w", err)
		}
		if ln == 0 || ln > MaxFrameBytes {
			return fmt.Errorf("logio: binary stream: frame length %d out of range, stream desynced", ln)
		}
		need := int(ln) + 4
		buf := *d.payloadP
		if cap(buf) < need {
			buf = make([]byte, need)
			*d.payloadP = buf
		}
		buf = buf[:need]
		if _, err := io.ReadFull(d.r, buf); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				d.frameError(frameErrf("torn frame at EOF (wanted %d bytes)", need))
				return nil
			}
			return fmt.Errorf("logio: binary stream: %w", err)
		}
		payload := buf[:ln]
		if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(buf[ln:]); got != want {
			d.frameError(frameErrf("crc mismatch: got %08x want %08x", got, want))
			continue
		}
		t0 := time.Now()
		recs, err := d.DecodeFrame(payload, fn)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				return err
			}
			d.frameError(err)
		}
		if d.AfterFrame != nil {
			d.AfterFrame(recs, time.Since(t0))
		}
	}
}

func (d *EventDecoder) frameError(err error) {
	d.FramesSkipped++
	if d.OnFrameError != nil {
		d.OnFrameError(err)
	}
}

// DecodeFrame decodes one CRC-verified frame payload, invoking fn per
// record, and returns how many records were delivered. Errors wrapping
// ErrBadFrame mean the rest of the frame is undecodable; any other
// error came from fn. Exported for the fuzzer.
func (d *EventDecoder) DecodeFrame(payload []byte, fn func(*Event) error) (int, error) {
	recs := 0
	for len(payload) > 0 {
		op := payload[0]
		payload = payload[1:]
		day, n := binary.Varint(payload)
		if n <= 0 {
			return recs, frameErrf("record %d: bad day varint", recs)
		}
		payload = payload[n:]
		switch op {
		case opQuery:
			machine, msym, rest, err := d.readRef(payload, false)
			if err != nil {
				return recs, fmt.Errorf("record %d machine: %w", recs, err)
			}
			domain, dsym, rest, err := d.readRef(rest, true)
			if err != nil {
				return recs, fmt.Errorf("record %d domain: %w", recs, err)
			}
			payload = rest
			d.ev = Event{Kind: EventQuery, Day: int(day), Machine: machine, MachineSym: msym, Domain: domain, DomainSym: dsym}
		case opResolution:
			domain, dsym, rest, err := d.readRef(payload, true)
			if err != nil {
				return recs, fmt.Errorf("record %d domain: %w", recs, err)
			}
			nips, n := binary.Uvarint(rest)
			if n <= 0 {
				return recs, frameErrf("record %d: bad ip count", recs)
			}
			rest = rest[n:]
			if nips > uint64(len(rest))/4 {
				return recs, frameErrf("record %d: ip count %d exceeds frame", recs, nips)
			}
			ips := d.ipAlloc(int(nips))
			for i := range ips {
				ips[i] = dnsutil.IPv4(binary.BigEndian.Uint32(rest[i*4:]))
			}
			payload = rest[int(nips)*4:]
			d.ev = Event{Kind: EventResolution, Day: int(day), Domain: domain, DomainSym: dsym, IPs: ips}
		default:
			return recs, frameErrf("record %d: unknown opcode %#02x", recs, op)
		}
		recs++
		if err := fn(&d.ev); err != nil {
			return recs, err
		}
	}
	return recs, nil
}

// readRef decodes one string reference and reports the symbol it went
// through: the table index plus one, or 0 for a literal. Domain
// references are normalized (cached per symbol); machine references are
// taken raw, as the text parser does.
func (d *EventDecoder) readRef(b []byte, domain bool) (s string, sym uint32, rest []byte, err error) {
	tag, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, b, frameErrf("bad ref tag")
	}
	b = b[n:]
	if tag >= refBase {
		id := tag - refBase
		if id >= uint64(len(d.syms)) {
			return "", 0, b, frameErrf("unknown symbol id %d (table has %d)", id, len(d.syms))
		}
		s, err = d.symString(&d.syms[id], domain)
		return s, uint32(id) + 1, b, err
	}
	ln, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, b, frameErrf("bad ref length")
	}
	b = b[n:]
	if ln > uint64(len(b)) {
		return "", 0, b, frameErrf("ref length %d exceeds frame", ln)
	}
	// The payload buffer is reused frame to frame, so both literal and
	// interned strings are copied out here — interned ones once per
	// symbol for the life of the stream.
	s = string(b[:ln])
	b = b[ln:]
	if tag == refDefine {
		if len(d.syms) >= maxSymbols || d.symBytes+len(s) > maxSymbolBytes {
			return "", 0, b, frameErrf("symbol table overflow at %d entries", len(d.syms))
		}
		d.syms = append(d.syms, symEntry{raw: s})
		d.symBytes += len(s)
		s, err = d.symString(&d.syms[len(d.syms)-1], domain)
		return s, uint32(len(d.syms)), b, err
	}
	if domain {
		norm, err := dnsutil.Normalize(s)
		if err != nil {
			return "", 0, b, frameErrf("bad domain: %v", err)
		}
		return norm, 0, b, nil
	}
	return s, 0, b, nil
}

// symString resolves an interned entry for machine or domain use.
func (d *EventDecoder) symString(e *symEntry, domain bool) (string, error) {
	if !domain {
		return e.raw, nil
	}
	if !e.domChecked {
		e.dom, e.domErr = dnsutil.Normalize(e.raw)
		e.domChecked = true
	}
	if e.domErr != nil {
		return "", frameErrf("bad domain symbol: %v", e.domErr)
	}
	return e.dom, nil
}

// ReadEventsBinary decodes a binary event stream into fn, mirroring
// ReadEvents for the binary format. Frame-granular failures go to
// onFrameErr (nil to ignore) and are skipped; fn's error aborts and is
// returned verbatim.
func ReadEventsBinary(r io.Reader, fn func(Event) error, onFrameErr func(error)) error {
	d := NewEventDecoder(r)
	defer d.Release()
	d.OnFrameError = onFrameErr
	return d.Run(func(e *Event) error { return fn(*e) })
}
