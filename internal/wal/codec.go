package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Encoder builds a binary payload (WAL record or checkpoint body) from
// primitive fields. The format is plain little-endian with uvarint lengths —
// no reflection, no per-field allocation — and is decoded by Decoder below.
// The zero value is ready to use and buffers the whole payload (Bytes).
//
// NewStreamEncoder gives the same encoder a sink: whenever the buffer passes
// streamSpill bytes it is written to the sink and reused, so a payload of any
// size is produced in constant memory. The bytes are identical either way —
// the sink sees exactly what Bytes would have returned, in order — which is
// what lets a digest hash a snapshot without materialising it.
type Encoder struct {
	buf []byte
	// Sink mode only: the sink, the bytes already handed to it, and its first
	// write error (latched; later output is discarded, Flush reports it).
	w       io.Writer
	flushed int
	err     error
}

// streamSpill is the buffered size at which a stream encoder writes to its
// sink: the buffer spills after the append that takes it past the mark, so it
// peaks at streamSpill plus one value.
const streamSpill = 32 << 10

// NewStreamEncoder returns an encoder that spills to w. Call Flush after the
// last field.
func NewStreamEncoder(w io.Writer) *Encoder {
	// Headroom past the mark for the usual last value (a chunk's text, a
	// stored vector of under 1 KiB), so the buffer is allocated once.
	return &Encoder{w: w, buf: make([]byte, 0, streamSpill+4096)}
}

// spill hands a full buffer to the sink. Every field method ends with it; on
// a buffered encoder it is one nil check.
func (e *Encoder) spill() {
	if e.w != nil && len(e.buf) >= streamSpill {
		e.flush()
	}
}

func (e *Encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.flushed += len(e.buf)
	e.buf = e.buf[:0]
}

// Flush writes whatever a stream encoder still buffers to its sink and
// returns the first error the sink reported. On a buffered encoder it does
// nothing.
func (e *Encoder) Flush() error {
	if e.w != nil {
		e.flush()
	}
	return e.err
}

// Bytes returns the encoded payload of a buffered encoder. The slice aliases
// the encoder's buffer; callers must finish with it before reusing the
// encoder. A stream encoder has handed its payload to the sink; Bytes is only
// its unspilled tail.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far, spilled bytes included.
func (e *Encoder) Len() int { return e.flushed + len(e.buf) }

// scratchKeep is the most a reused scratch buffer — an Encoder across Reset,
// a Tail's read buffer across records — holds on to between records. A steady
// commit's record is tens of kilobytes; the one record of a bulk load is the
// size of the corpus, and a buffer that kept growing to fit it would stay
// live, and count double in the collector's heap goal, for the life of the
// process.
const scratchKeep = 1 << 20

// Reset discards the encoded payload, keeping the buffer for reuse unless it
// has outgrown scratchKeep.
func (e *Encoder) Reset() {
	if cap(e.buf) > scratchKeep {
		e.buf = nil
	}
	e.buf, e.flushed = e.buf[:0], 0
}

// Grow reserves room for n more bytes, so a payload whose size is known (or
// well estimated) up front is built in one allocation instead of a doubling
// series that leaves several times its size in garbage.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// UvarintSize is how many bytes Uvarint(v) appends.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StringSize is how many bytes String(s) appends.
func StringSize(s string) int { return UvarintSize(uint64(len(s))) + len(s) }

// FrontSize is how many bytes Front(prev, s) appends.
func FrontSize(prev, s string) int {
	l := commonPrefix(prev, s)
	return UvarintSize(uint64(l)) + StringSize(s[l:])
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
	e.spill()
}

// Int appends a non-negative int as a uvarint (counts, lengths, handles).
func (e *Encoder) Int(v int) { e.Uvarint(uint64(v)) }

// Int32 appends a signed int32 as a zigzag varint (entity handles may be -1).
func (e *Encoder) Int32(v int32) {
	e.buf = binary.AppendVarint(e.buf, int64(v))
	e.spill()
}

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	e.spill()
}

// F64 appends a float64 as its IEEE-754 bits, little-endian.
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	e.spill()
}

// String appends a uvarint length followed by the raw bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
	e.spill()
}

// Front appends s front-coded against prev, the value the same column held
// in the previous row: the length of their common prefix as a uvarint, then
// the rest of s as String does. A column whose rows repeat or share a stem
// (a source, a document ID, a chunk ID) then costs a byte or two per row
// instead of its whole value. Decoder.Front reads it back given the same
// prev.
func (e *Encoder) Front(prev, s string) {
	l := commonPrefix(prev, s)
	e.Uvarint(uint64(l))
	e.String(s[l:])
}

// Raw appends b verbatim: a field the caller already holds in encoded form.
func (e *Encoder) Raw(b []byte) {
	e.buf = append(e.buf, b...)
	e.spill()
}

// Decoder reads back an Encoder payload. Errors latch: the first malformed
// field poisons the decoder, every later read returns the zero value, and the
// caller checks Err once at the end — the discipline that keeps the decode
// call sites linear. All lengths are validated against the remaining input
// before any allocation, so a corrupt (or fuzzed) payload can never provoke a
// huge make() or an out-of-bounds read.
type Decoder struct {
	b     []byte
	off   int
	err   error
	strs  map[string]string // Interned's and Front's table, made on first use
	arena *Arena            // where the strings d returns are kept; nil: one string each
}

// NewDecoder returns a decoder over b. The decoder aliases b; callers must
// not mutate it while decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Reset points d at a new input b and clears its error, keeping the table
// Interned and Front share and the arena: a caller decoding several payloads
// that belong together (the parts of one commit group) keeps one copy of
// every value they repeat, as it would decoding them as one payload.
func (d *Decoder) Reset(b []byte) { d.b, d.off, d.err = b, 0, nil }

// SetArena makes d keep every string it returns from then on — String,
// Interned, Front and FrontFresh — in a's blocks instead of one heap object
// each. d becomes a's writer while it decodes: the caller must hold whatever
// serializes a's writers (an engine's commit lock) or own a outright.
func (d *Decoder) SetArena(a *Arena) { d.arena = a }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	d.Fail(fmt.Errorf("wal: decode: "+format, args...))
}

// Fail latches err as the decode error unless one is latched already — the
// hook through which a caller's own validation of decoded fields (a bucket
// out of range, a count that disagrees with another) poisons the decoder
// exactly as a malformed primitive would.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a non-negative int written by Encoder.Int, rejecting values that
// overflow the platform int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 { // counts/handles: anything larger is corruption
		d.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

// Int32 reads a zigzag varint written by Encoder.Int32.
func (d *Decoder) Int32() int32 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("bad int32 at offset %d", d.off)
		return 0
	}
	d.off += n
	return int32(v)
}

// Bool reads a 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated bool")
		return false
	}
	c := d.b[d.off]
	d.off++
	if c > 1 {
		d.fail("bad bool byte %d", c)
		return false
	}
	return c == 1
}

// F64 reads a little-endian float64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string, kept in d's arena if it has one.
func (d *Decoder) String() string { return d.arena.keep("", d.stringBytes()) }

// Interned reads a length-prefixed string exactly as String does — same
// value, same error, same offset — but returns one shared copy of every value
// this decoder has read through Interned before. Decoders read the fields
// that repeat across rows (a triple's source, a chunk's document) through it,
// so decoded state holds each such value once instead of once per row. The
// copy is kept in d's arena if it has one, so a new value costs no heap
// object of its own; a value read again costs nothing.
func (d *Decoder) Interned() string { return d.intern(d.stringBytes()) }

// intern returns the table's copy of b, adding one if b is new.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok || len(b) == 0 {
		return s
	}
	s := d.arena.keep("", b)
	if d.strs == nil {
		d.strs = map[string]string{}
	}
	d.strs[s] = s
	return s
}

// Front reads a field written by Encoder.Front against prev, which must be
// the value the same column decoded in the previous row. A prefix length
// longer than prev is a latched error. An exact repeat returns prev itself;
// any other value is interned through the table Interned uses, so decoded
// state holds one copy of each distinct value however it was coded, kept in
// d's arena if it has one.
func (d *Decoder) Front(prev string) string { return d.front(prev, "", true) }

// FrontPrefix reads a field exactly as Front does — same value, same error,
// same offset — but a new value that of begins with is returned as that
// prefix of of, a string the caller already keeps, instead of the table's
// copy. It is for a column whose value most rows spell at the start of
// another, such as a chunk's document at the start of the chunk's ID.
func (d *Decoder) FrontPrefix(prev, of string) string { return d.front(prev, of, true) }

// FrontFresh reads a field written by Encoder.Front exactly as Front does —
// same value, same error, same offset — but returns a value that is not an
// exact repeat of prev as a copy of its own (in d's arena if it has one)
// instead of the table's. It is for a column whose values never repeat, such
// as a chunk's ID, where the table would pay a map insertion per row and
// share nothing.
func (d *Decoder) FrontFresh(prev string) string { return d.front(prev, "", false) }

func (d *Decoder) front(prev, of string, intern bool) string {
	l := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if l > uint64(len(prev)) {
		d.fail("prefix length %d exceeds the %d-byte previous value", l, len(prev))
		return ""
	}
	suffix := d.stringBytes()
	if d.err != nil {
		return ""
	}
	switch {
	case len(suffix) == 0 && int(l) == len(prev):
		return prev
	case !intern:
		return d.arena.keep(prev[:l], suffix)
	}
	if n := int(l) + len(suffix); n <= len(of) && of[:l] == prev[:l] && of[l:n] == string(suffix) {
		return of[:n]
	}
	if l == 0 {
		return d.intern(suffix)
	}
	var buf [128]byte // the value, to look it up; a longer one spills
	return d.intern(append(append(buf[:0], prev[:l]...), suffix...))
}

// View reads a length-prefixed string exactly as String does and returns it
// as a view of the input instead of a copy: for a value the caller only looks
// up or compares. The view aliases the input; the caller must not keep it.
func (d *Decoder) View() []byte { return d.stringBytes() }

// AppendFront reads a field written by Encoder.Front against prev exactly as
// Front does, and appends the value to dst instead of allocating or interning
// it. prev may be a view of dst itself.
func (d *Decoder) AppendFront(dst, prev []byte) []byte {
	l := d.Uvarint()
	if d.err != nil {
		return dst
	}
	if l > uint64(len(prev)) {
		d.fail("prefix length %d exceeds the %d-byte previous value", l, len(prev))
		return dst
	}
	suffix := d.stringBytes()
	if d.err != nil {
		return dst
	}
	return append(append(dst, prev[:l]...), suffix...)
}

// stringBytes reads a length-prefixed string as a view of the input.
func (d *Decoder) stringBytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Finish reports decode success: no latched error and no trailing garbage.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wal: decode: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}
