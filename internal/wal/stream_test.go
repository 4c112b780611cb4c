package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// chunkWriter records how the stream encoder cut its output.
type chunkWriter struct {
	buf    bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.buf.Write(p)
}

// field is one scripted encoder call with the value a decoder must read back.
type field struct {
	kind int
	u    uint64
	i32  int32
	b    bool
	f    float64
	s    string
	f32  float32
}

func randFields(rng *rand.Rand, n int) []field {
	fs := make([]field, n)
	for i := range fs {
		f := field{kind: rng.Intn(6)}
		switch f.kind {
		case 0:
			f.u = rng.Uint64() >> uint(rng.Intn(64))
		case 1:
			f.i32 = int32(rng.Uint32())
		case 2:
			f.b = rng.Intn(2) == 0
		case 3:
			f.f = rng.NormFloat64()
		case 4:
			n := rng.Intn(200)
			if rng.Intn(50) == 0 {
				n = streamSpill + rng.Intn(streamSpill) // one field larger than the buffer
			}
			f.s = strings.Repeat(string(rune('a'+rng.Intn(26))), n)
		case 5:
			f.f32 = rng.Float32()
		}
		fs[i] = f
	}
	return fs
}

func encodeFields(e *Encoder, fs []field) {
	for _, f := range fs {
		switch f.kind {
		case 0:
			e.Uvarint(f.u)
		case 1:
			e.Int32(f.i32)
		case 2:
			e.Bool(f.b)
		case 3:
			e.F64(f.f)
		case 4:
			e.String(f.s)
		case 5:
			e.F32(f.f32)
		}
	}
}

// TestStreamEncoderMatchesBuffered is the sink-mode contract: for any field
// script the sink receives exactly the bytes a buffered encoder holds — cut
// only at field boundaries, in pieces of at least streamSpill until the final
// Flush — Len counts spilled bytes, and the stream decodes back to the
// script's values.
func TestStreamEncoderMatchesBuffered(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3000
		if seed == 1 {
			n = 40 // stays under one buffer: nothing spills before Flush
		}
		fs := randFields(rng, n)

		var buffered Encoder
		encodeFields(&buffered, fs)

		var sink chunkWriter
		stream := NewStreamEncoder(&sink)
		encodeFields(stream, fs)
		if stream.Len() != buffered.Len() {
			t.Fatalf("seed %d: Len before Flush = %d, buffered %d", seed, stream.Len(), buffered.Len())
		}
		spills := len(sink.writes)
		if err := stream.Flush(); err != nil {
			t.Fatalf("seed %d: Flush: %v", seed, err)
		}
		if stream.Len() != buffered.Len() {
			t.Fatalf("seed %d: Len after Flush = %d, buffered %d", seed, stream.Len(), buffered.Len())
		}
		if !bytes.Equal(sink.buf.Bytes(), buffered.Bytes()) {
			t.Fatalf("seed %d: streamed bytes differ from buffered bytes", seed)
		}
		if seed == 1 && spills != 0 {
			t.Fatalf("seed 1: %d spills under one buffer", spills)
		}
		if seed > 1 && spills < 3 {
			t.Fatalf("seed %d: only %d spills; the script must cross several buffers", seed, spills)
		}
		for i, n := range sink.writes[:spills] {
			if n < streamSpill {
				t.Fatalf("seed %d: spill %d wrote %d bytes, below the %d mark", seed, i, n, streamSpill)
			}
		}

		d := NewDecoder(sink.buf.Bytes())
		for i, f := range fs {
			var ok bool
			switch f.kind {
			case 0:
				ok = d.Uvarint() == f.u
			case 1:
				ok = d.Int32() == f.i32
			case 2:
				ok = d.Bool() == f.b
			case 3:
				ok = d.F64() == f.f
			case 4:
				ok = d.String() == f.s
			case 5:
				ok = d.F32() == f.f32
			}
			if !ok || d.Err() != nil {
				t.Fatalf("seed %d: field %d (kind %d) did not round-trip: %v", seed, i, f.kind, d.Err())
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("seed %d: Finish: %v", seed, err)
		}
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestStreamEncoderLatchesSinkError: the first sink error is kept and
// reported by Flush; encoding carries on without panicking or buffering
// without bound.
func TestStreamEncoderLatchesSinkError(t *testing.T) {
	boom := errors.New("sink full")
	e := NewStreamEncoder(failingWriter{boom})
	big := strings.Repeat("x", streamSpill)
	for i := 0; i < 4; i++ {
		e.String(big)
		if len(e.Bytes()) != 0 {
			t.Fatalf("write %d: %d bytes still buffered after a spill", i, len(e.Bytes()))
		}
	}
	if err := e.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want the sink's error", err)
	}
}

// TestEncoderGrow: a pre-sized buffered encoder fills without reallocating,
// and Grow keeps what was already encoded.
func TestEncoderGrow(t *testing.T) {
	var e Encoder
	e.String("head")
	e.Grow(1 << 16)
	base := &e.Bytes()[0]
	for e.Len() < 1<<16 {
		e.F64(1.5)
	}
	if &e.Bytes()[0] != base {
		t.Fatal("encoder reallocated inside the reserved size")
	}
	if d := NewDecoder(e.Bytes()); d.String() != "head" || d.F64() != 1.5 {
		t.Fatal("Grow lost the encoded prefix")
	}
}
