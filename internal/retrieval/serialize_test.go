package retrieval

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"multirag/internal/wal"
)

func fillStore(s Store, n int) {
	cs := make([]Chunk, n)
	vs := make([]Vector, n)
	for i := 0; i < n; i++ {
		cs[i] = Chunk{
			ID:     fmt.Sprintf("doc%d#c%d", i/4, i%4),
			DocID:  fmt.Sprintf("doc%d", i/4),
			Source: fmt.Sprintf("s%d", i%3),
			Text:   fmt.Sprintf("chunk %d about topic %d", i, i%7),
		}
		vs[i] = Embed(cs[i].Text, s.Dim())
	}
	s.AddEmbeddedBatch(cs, vs)
}

func encodeStore(s Store) []byte {
	var e wal.Encoder
	EncodeStore(&e, s)
	return append([]byte(nil), e.Bytes()...)
}

func TestStoreSerializeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"flat-empty", 0},
		{"flat", 50},
		// Enough rows that every posting list grows many times over.
		{"postings", 1100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := NewIndex(32)
			fillStore(src, tc.n)
			raw := encodeStore(src)
			dst := NewIndex(32)
			d := wal.NewDecoder(raw)
			if err := DecodeIntoStore(d, dst); err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			if dst.Len() != src.Len() {
				t.Fatalf("Len diverges: got %d want %d", dst.Len(), src.Len())
			}
			// Identical search results, score for score.
			for _, q := range []string{"topic 3", "chunk 11", "nothing relevant"} {
				got, want := dst.Search(q, 10), src.Search(q, 10)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Search(%q) diverges:\n got  %v\n want %v", q, got, want)
				}
			}
			// The derived column view is rebuilt entry for entry.
			if !reflect.DeepEqual(dst.post, src.post) {
				t.Fatal("decoded posting lists differ from the source's")
			}
			// Deterministic bytes: the decoded store re-encodes identically.
			if !bytes.Equal(encodeStore(dst), raw) {
				t.Fatal("re-encoded bytes differ from original encoding")
			}
		})
	}
}

func TestDecodeIntoStoreValidates(t *testing.T) {
	src := NewIndex(16)
	fillStore(src, 5)
	raw := encodeStore(src)

	if err := DecodeIntoStore(wal.NewDecoder(raw), NewIndex(32)); err == nil {
		t.Fatal("decode accepted a dim mismatch")
	}
	full := NewIndex(16)
	fillStore(full, 1)
	if err := DecodeIntoStore(wal.NewDecoder(raw), full); err == nil {
		t.Fatal("decode accepted a non-empty target store")
	}
	for cut := 0; cut < len(raw); cut++ {
		dst := NewIndex(16)
		d := wal.NewDecoder(raw[:cut])
		if err := DecodeIntoStore(d, dst); err == nil {
			if err := d.Finish(); err == nil {
				t.Fatalf("cut %d: decode of truncated stream succeeded", cut)
			}
		}
	}
}

// TestDecodeAllocationPerRow: loading a checkpoint allocates what the store
// keeps — chunk strings, chunk slots, posting entries — and never a dense row
// per row: the bytes allocated per decoded row stay under one dense row's
// dim×4.
func TestDecodeAllocationPerRow(t *testing.T) {
	const n = 16384
	src := NewIndex(DefaultDim)
	fillStore(src, n)
	raw := encodeStore(src)
	var before, after runtime.MemStats
	dst := NewIndex(DefaultDim)
	runtime.ReadMemStats(&before)
	err := DecodeIntoStore(wal.NewDecoder(raw), dst)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != n {
		t.Fatalf("decoded %d of %d rows", dst.Len(), n)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B allocated per decoded row (a dense row is %d B)", perRow, DefaultDim*4)
	if perRow >= DefaultDim*4 {
		t.Fatalf("decode allocates %.0f B per row, a dense row's worth or more", perRow)
	}
	// A row count with no rows behind it reserves nothing: the decode fails
	// on the truncated stream having allocated next to nothing.
	var e wal.Encoder
	e.Int(DefaultDim)
	e.Int(1<<31 - 1)
	empty := NewIndex(DefaultDim)
	runtime.ReadMemStats(&before)
	err = DecodeIntoStore(wal.NewDecoder(e.Bytes()), empty)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decode accepted a row count with no rows behind it")
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<10 {
		t.Fatalf("a bare row count cost %d B", b)
	}
}

// roundTripVector encodes v, decodes it into a scratch full of garbage (the
// decode must overwrite every bucket) and reports a mismatch by bit pattern.
func roundTripVector(t *testing.T, label string, v Vector) {
	t.Helper()
	var e wal.Encoder
	EncodeVector(&e, v)
	got := make(Vector, len(v))
	for i := range got {
		got[i] = float32(i) + 0.5
	}
	d := wal.NewDecoder(e.Bytes())
	DecodeVector(d, got)
	if err := d.Finish(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range v {
		if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
			t.Fatalf("%s: bucket %d decoded as %v, encoded %v", label, i, got[i], v[i])
		}
	}
}

// TestVectorRoundTrip: DecodeVector(EncodeVector(v)) is v bit for bit, for
// Embed outputs at the widths the repository uses and for random sparse
// vectors from all-zero to full-width, with weights of both signs and every
// magnitude a float32 can hold.
func TestVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		text := randText(rng)
		for _, dim := range []int{7, 64, DefaultDim} {
			roundTripVector(t, fmt.Sprintf("Embed(%q, %d)", text, dim), Embed(text, dim))
		}
	}
	roundTripVector(t, "empty text", Embed("", DefaultDim))
	for _, dim := range []int{1, 2, 31, DefaultDim, 3 * DefaultDim} {
		for _, density := range []float64{0, 0.01, 0.05, 0.5, 1} {
			for rep := 0; rep < 20; rep++ {
				v := make(Vector, dim)
				for b := range v {
					if rng.Float64() < density {
						for v[b] == 0 {
							bits := rng.Uint32()
							if bits>>23&0xff == 0xff {
								bits &^= 1 << 23 // an all-ones exponent is Inf or NaN
							}
							v[b] = math.Float32frombits(bits)
						}
					}
				}
				roundTripVector(t, fmt.Sprintf("dim %d density %v rep %d", dim, density, rep), v)
			}
		}
	}
	full := make(Vector, DefaultDim)
	for b := range full {
		full[b] = -float32(b + 1)
	}
	roundTripVector(t, "full width", full)
}

// TestDecodeVectorRejectsMalformed: every way a sparse vector can be wrong —
// too many weights, a repeated or out-of-range bucket, weight and bucket
// counts that disagree, a zero, NaN or infinite weight, a truncation at any
// byte — latches an error on the decoder instead of panicking.
func TestDecodeVectorRejectsMalformed(t *testing.T) {
	const dim = 16
	sparse := func(n int, gaps []uint64, m int, ws ...float32) []byte {
		var e wal.Encoder
		e.Int(n)
		for _, g := range gaps {
			e.Uvarint(g)
		}
		e.Int(m)
		for _, w := range ws {
			e.F32(w)
		}
		return append([]byte(nil), e.Bytes()...)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	cases := map[string][]byte{
		"more weights than buckets": sparse(dim+1, nil, 0),
		"first gap zero":            sparse(1, []uint64{0}, 1, 1),
		"repeated bucket":           sparse(2, []uint64{3, 0}, 2, 1, 2),
		"bucket at dim":             sparse(1, []uint64{dim + 1}, 1, 1),
		"bucket past dim":           sparse(2, []uint64{dim, 1}, 2, 1, 2),
		"huge gap":                  sparse(1, []uint64{math.MaxUint64}, 1, 1),
		"fewer weights":             sparse(2, []uint64{1, 1}, 1, 1),
		"more weights":              sparse(1, []uint64{1}, 2, 1, 2),
		"zero weight":               sparse(1, []uint64{1}, 1, 0),
		"negative zero weight":      sparse(1, []uint64{1}, 1, float32(math.Copysign(0, -1))),
		"NaN weight":                sparse(2, []uint64{1, 4}, 2, 1, nan),
		"+Inf weight":               sparse(1, []uint64{1}, 1, inf),
		"-Inf weight":               sparse(1, []uint64{1}, 1, -inf),
	}
	var e wal.Encoder
	EncodeVector(&e, Embed("status delayed typhoon gate boarding", dim))
	valid := e.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated at %d of %d", cut, len(valid))] = valid[:cut]
	}
	for name, b := range cases {
		d := wal.NewDecoder(b)
		DecodeVector(d, make(Vector, dim))
		if d.Err() == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

}
