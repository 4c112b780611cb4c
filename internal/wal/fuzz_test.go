package wal

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// FuzzFrameParse throws arbitrary bytes at the WAL frame parser — the code
// path every recovery walks over whatever a crash left on disk, and every
// replica's Tail over the primary's segments. Invariants: no panic, the clean
// prefix is always re-parseable to the same records, records round-trip
// bit-exactly through appendFrame, and a Tail over the bytes as a segment
// reads exactly those records and then, told one more is committed, fails.
func FuzzFrameParse(f *testing.F) {
	var seed []byte
	seed = appendFrame(seed, []byte("alpha"))
	seed = appendFrame(seed, nil)
	seed = appendFrame(seed, bytes.Repeat([]byte{0xAB}, 300))
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                         // torn tail
	f.Add([]byte{})                                   // empty segment
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // huge length claim
	mut := append([]byte(nil), seed...)
	mut[9] ^= 0x40 // corrupt first record's payload
	f.Add(mut)

	f.Fuzz(func(t *testing.T, b []byte) {
		payloads, clean, ok := parseFrames(b)
		if clean > len(b) {
			t.Fatalf("clean %d beyond input %d", clean, len(b))
		}
		if ok && clean != len(b) {
			t.Fatalf("ok with %d trailing bytes", len(b)-clean)
		}
		// The clean prefix re-parses to the identical record list.
		again, cleanAgain, okAgain := parseFrames(b[:clean])
		if !okAgain || cleanAgain != clean || len(again) != len(payloads) {
			t.Fatalf("clean prefix unstable: ok=%v clean=%d/%d n=%d/%d",
				okAgain, cleanAgain, clean, len(again), len(payloads))
		}
		// Re-encoding the records reproduces the clean prefix byte for byte.
		var re []byte
		for i, p := range payloads {
			if !bytes.Equal(p, again[i]) {
				t.Fatalf("record %d differs on re-parse", i)
			}
			re = appendFrame(re, p)
		}
		if !bytes.Equal(re, b[:clean]) {
			t.Fatal("re-encoded records differ from clean prefix")
		}

		m := NewMemFS()
		seg, err := m.Create(join("wal", segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		seg.Write(b)
		m.MkdirAll("wal")
		tail, err := OpenTail(m, "wal", 0)
		if err != nil {
			t.Fatal(err)
		}
		committed := uint64(len(payloads)) + 1
		for i, p := range payloads {
			got, ok, err := tail.Next(committed)
			if err != nil || !ok || !bytes.Equal(got, p) {
				t.Fatalf("tail record %d = %x, %v, %v; parser read %x", i, got, ok, err, p)
			}
		}
		if _, _, err := tail.Next(committed); err == nil {
			t.Fatal("tail read past the clean prefix without an error")
		}

		// The checkpoint parser must be equally panic-free.
		if body, ok := parseCheckpoint(b); ok && len(body) > len(b) {
			t.Fatal("checkpoint body longer than file")
		}
	})
}

// FuzzDecoder drives the primitive decoder over arbitrary input with a fixed
// field script: no panic, no huge allocation, errors latch.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.Uvarint(7)
	e.String("subject")
	e.Int32(-1)
	e.F64(0.5)
	e.F32(1)
	e.Bool(true)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80}) // unterminated varint
	// The fixed fields, then a count of 2^62: Int must refuse it, or a run of
	// four-byte items sized by it would wrap.
	var wrap Encoder
	wrap.Uvarint(7)
	wrap.String("subject")
	wrap.Int32(-1)
	wrap.F64(0.5)
	wrap.F32(1)
	wrap.Bool(true)
	wrap.Uvarint(1 << 62)
	f.Add(wrap.Bytes())
	// Repeated values, for Interned to serve from its table.
	var rep Encoder
	for _, s := range []string{"feed", "feed", "", "gate", "feed", "", "gate"} {
		rep.String(s)
	}
	f.Add(rep.Bytes())
	f.Add(rep.Bytes()[:len(rep.Bytes())-2]) // the last value is torn
	// A front-coded column: stems, repeats, a value read again later.
	var front Encoder
	prev := ""
	for _, s := range []string{"doc-1#c0", "doc-1#c1", "doc-1#c1", "doc-12#c0", "", "doc-1#c0", "doc-1#c0"} {
		front.Front(prev, s)
		prev = s
	}
	f.Add(front.Bytes())
	f.Add(front.Bytes()[:len(front.Bytes())-3])
	f.Add([]byte{0, 1, 'a', 3, 0}) // a 3-byte prefix of a 1-byte value

	f.Fuzz(func(t *testing.T, b []byte) {
		d := NewDecoder(b)
		_ = d.Uvarint()
		_ = d.String()
		_ = d.Int32()
		_ = d.F64()
		_ = d.F32()
		_ = d.Bool()
		// A count: Int returns what Uvarint reads up to MaxInt32, and on a
		// larger value (the wrap seed's 2^62) latches an error and returns 0.
		raw := *d
		v := raw.Uvarint()
		count := d.Int()
		switch {
		case count < 0 || count > math.MaxInt32:
			t.Fatalf("Int returned %d", count)
		case raw.err != nil:
		case v > math.MaxInt32 && (d.err == nil || count != 0):
			t.Fatalf("Int on %d returned %d (%v), want a latched error", v, count, d.err)
		case v <= math.MaxInt32 && (d.err != nil || uint64(count) != v):
			t.Fatalf("Int on %d returned %d (%v)", v, count, d.err)
		}
		if d.Err() != nil {
			// Errors must latch: one more read of each kind stays zero.
			if d.Uvarint() != 0 || d.String() != "" || d.F32() != 0 {
				t.Fatal("reads after error returned data")
			}
		}

		// Interned reads what String reads — value, error, offset — whether
		// the value is new or served from the table, and equal values it
		// returns share their bytes.
		plain, interned := NewDecoder(b), NewDecoder(b)
		first := map[string]string{}
		for i := 0; i < 8; i++ {
			want, got := plain.String(), interned.Interned()
			if got != want || interned.off != plain.off || fmt.Sprint(interned.err) != fmt.Sprint(plain.err) {
				t.Fatalf("read %d: Interned = %q at %d (%v), String = %q at %d (%v)",
					i, got, interned.off, interned.err, want, plain.off, plain.err)
			}
			if f, ok := first[got]; ok && unsafe.StringData(f) != unsafe.StringData(got) {
				t.Fatalf("read %d: repeated value %q is a second copy", i, got)
			} else if !ok {
				first[got] = got
			}
		}

		// Front reads what the oracle rebuilds from a prefix length and a
		// suffix — value, error, offset — row after row; an exact repeat is
		// the previous value itself, and equal values share their bytes.
		oracle, fronted := NewDecoder(b), NewDecoder(b)
		prevWant, prevGot := "", ""
		first = map[string]string{}
		for i := 0; i < 8; i++ {
			want, got := oracleFront(oracle, prevWant), fronted.Front(prevGot)
			if got != want || fronted.off != oracle.off || fmt.Sprint(fronted.err) != fmt.Sprint(oracle.err) {
				t.Fatalf("row %d: Front = %q at %d (%v), oracle = %q at %d (%v)",
					i, got, fronted.off, fronted.err, want, oracle.off, oracle.err)
			}
			if got == prevGot && got != "" && unsafe.StringData(got) != unsafe.StringData(prevGot) {
				t.Fatalf("row %d: exact repeat %q is not the previous value", i, got)
			}
			if f, ok := first[got]; ok && got != "" && unsafe.StringData(f) != unsafe.StringData(got) {
				t.Fatalf("row %d: repeated value %q is a second copy", i, got)
			} else if !ok {
				first[got] = got
			}
			prevWant, prevGot = want, got
		}
		// FrontFresh reads what Front reads, value, error and offset.
		fresh, fronted := NewDecoder(b), NewDecoder(b)
		prevGot = ""
		for i := 0; i < 8; i++ {
			want, got := fronted.Front(prevGot), fresh.FrontFresh(prevGot)
			if got != want || fresh.off != fronted.off || fmt.Sprint(fresh.err) != fmt.Sprint(fronted.err) {
				t.Fatalf("row %d: FrontFresh = %q at %d (%v), Front = %q at %d (%v)",
					i, got, fresh.off, fresh.err, want, fronted.off, fronted.err)
			}
			prevGot = got
		}
	})
}

// oracleFront reads a front-coded field the plain way: the prefix length, a
// check that prev has that many bytes, then the suffix as a String, and the
// value rebuilt as prev[:l] + suffix.
func oracleFront(d *Decoder, prev string) string {
	l := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if l > uint64(len(prev)) {
		d.fail("prefix length %d exceeds the %d-byte previous value", l, len(prev))
		return ""
	}
	suffix := d.String()
	if d.err != nil {
		return ""
	}
	return prev[:l] + suffix
}
