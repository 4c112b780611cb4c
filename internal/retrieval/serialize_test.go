package retrieval

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"multirag/internal/wal"
)

func fillStore(s *Index, n int) {
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

func encodeStore(ix *Index) []byte {
	var e wal.Encoder
	EncodeStore(&e, ix)
	return append([]byte(nil), e.Bytes()...)
}

// encodeStoreFormat3 is EncodeStore as format 3 wrote it: every row's vector,
// gathered from the posting lists, behind its text in the sparse stored form.
func encodeStoreFormat3(ix *Index) []byte {
	var e wal.Encoder
	e.Int(ix.Dim())
	e.Int(ix.Len())
	var prev Chunk
	ix.ForEachEmbedded(func(c Chunk, v Vector) {
		e.Front(prev.ID, c.ID)
		e.Front(prev.DocID, c.DocID)
		e.Front(prev.Source, c.Source)
		e.String(c.Text)
		e.Raw(oracleEncodeVector(v))
		prev = c
	})
	return append([]byte(nil), e.Bytes()...)
}

// TestStoreSerializeRoundTrip: a store decoded from its encoding — and from
// the format-3 encoding of the same store, vectors skipped — re-embeds to the
// same posting lists and answers searches score for score, on one worker and
// on several, and re-encodes to the same bytes.
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
			for _, body := range []struct {
				name        string
				raw         []byte
				withVectors bool
			}{{"format 4", raw, false}, {"format 3", encodeStoreFormat3(src), true}} {
				for _, workers := range []int{1, 3} {
					dst := NewIndex(32)
					d := wal.NewDecoder(body.raw)
					if err := DecodeIntoStore(d, dst, workers, body.withVectors); err != nil {
						t.Fatal(err)
					}
					if err := d.Finish(); err != nil {
						t.Fatal(err)
					}
					if dst.Len() != src.Len() {
						t.Fatalf("%s, %d workers: Len diverges: got %d want %d", body.name, workers, dst.Len(), src.Len())
					}
					// Identical search results, score for score.
					for _, q := range []string{"topic 3", "chunk 11", "nothing relevant"} {
						got, want := dst.Search(q, 10), src.Search(q, 10)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, %d workers: Search(%q) diverges:\n got  %v\n want %v", body.name, workers, q, got, want)
						}
					}
					// The derived column view is rebuilt entry for entry.
					if !reflect.DeepEqual(dst.post, src.post) {
						t.Fatalf("%s, %d workers: decoded posting lists differ from the source's", body.name, workers)
					}
					// Deterministic bytes: the decoded store re-encodes identically.
					if !bytes.Equal(encodeStore(dst), raw) {
						t.Fatalf("%s, %d workers: re-encoded bytes differ from original encoding", body.name, workers)
					}
				}
			}
		})
	}
}

// TestDecodeIntoStoreValidates: a width mismatch, a non-empty target and a
// body cut at any byte, in format 4 or format 3, are errors, with the target
// left empty.
func TestDecodeIntoStoreValidates(t *testing.T) {
	src := NewIndex(16)
	fillStore(src, 5)
	raw := encodeStore(src)

	if err := DecodeIntoStore(wal.NewDecoder(raw), NewIndex(32), 1, false); err == nil {
		t.Fatal("decode accepted a dim mismatch")
	}
	full := NewIndex(16)
	fillStore(full, 1)
	if err := DecodeIntoStore(wal.NewDecoder(raw), full, 1, false); err == nil {
		t.Fatal("decode accepted a non-empty target store")
	}
	for withVectors, body := range map[bool][]byte{false: raw, true: encodeStoreFormat3(src)} {
		for cut := 0; cut < len(body); cut++ {
			dst := NewIndex(16)
			d := wal.NewDecoder(body[:cut])
			if err := DecodeIntoStore(d, dst, 1, withVectors); err == nil {
				if err := d.Finish(); err == nil {
					t.Fatalf("vectors %v, cut %d: decode of truncated stream succeeded", withVectors, cut)
				}
			} else if dst.Len() != 0 {
				t.Fatalf("vectors %v, cut %d: a failed decode left %d rows", withVectors, cut, dst.Len())
			}
		}
	}
}

// TestDecodeAllocationPerRow: loading a checkpoint allocates what the store
// keeps — chunk strings, chunk slots, posting entries — and never a dense row
// per row, re-embedding included: the bytes allocated per decoded row stay
// under one dense row's dim×4.
func TestDecodeAllocationPerRow(t *testing.T) {
	const n = 16384
	src := NewIndex(DefaultDim)
	fillStore(src, n)
	raw := encodeStore(src)
	var before, after runtime.MemStats
	dst := NewIndex(DefaultDim)
	runtime.ReadMemStats(&before)
	err := DecodeIntoStore(wal.NewDecoder(raw), dst, 1, false)
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
	err = DecodeIntoStore(wal.NewDecoder(e.Bytes()), empty, 1, false)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decode accepted a row count with no rows behind it")
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<10 {
		t.Fatalf("a bare row count cost %d B", b)
	}
}

// TestSkipVectorFraming: format 3's stored vectors are read past by their
// framing alone — SkipVector ends exactly behind each one, whatever its
// buckets and weights hold — and a vector cut at any byte, or a weight count
// the bytes left cannot back, is a latched error.
func TestSkipVectorFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var e wal.Encoder
	var ends []int
	for i := 0; i < 50; i++ {
		e.Raw(oracleEncodeVector(Embed(randText(rng), []int{7, 64, DefaultDim}[i%3])))
		ends = append(ends, e.Len())
	}
	full := make(Vector, DefaultDim)
	for b := range full {
		full[b] = -float32(b + 1)
	}
	e.Raw(oracleEncodeVector(full))
	ends = append(ends, e.Len())
	body := e.Bytes()
	d := wal.NewDecoder(body)
	for i, end := range ends {
		SkipVector(d)
		if d.Err() != nil || len(body)-d.Remaining() != end {
			t.Fatalf("vector %d: skipped to %d (%v), want %d", i, len(body)-d.Remaining(), d.Err(), end)
		}
	}
	last := body[ends[len(ends)-2]:]
	for cut := 0; cut < len(last); cut++ {
		d := wal.NewDecoder(last[:cut])
		if SkipVector(d); d.Err() == nil {
			t.Fatalf("a vector cut at %d of %d bytes was skipped", cut, len(last))
		}
	}
	var over wal.Encoder
	over.Int(0)
	over.Int(1<<31 - 1)
	d = wal.NewDecoder(over.Bytes())
	if SkipVector(d); d.Err() == nil {
		t.Fatal("an unbacked weight count was skipped")
	}
}
