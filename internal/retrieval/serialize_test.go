package retrieval

import (
	"bytes"
	"fmt"
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

// TestStoreSerializeRoundTrip: a store decoded from its encoding re-embeds to
// the same posting lists and answers searches score for score, on one worker
// and on several, and re-encodes to the same bytes.
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
			for _, workers := range []int{1, 3} {
				dst := NewIndex(32)
				d := wal.NewDecoder(raw)
				if err := DecodeIntoStore(d, dst, workers); err != nil {
					t.Fatal(err)
				}
				if err := d.Finish(); err != nil {
					t.Fatal(err)
				}
				if dst.Len() != src.Len() {
					t.Fatalf("%d workers: Len diverges: got %d want %d", workers, dst.Len(), src.Len())
				}
				// Identical search results, score for score.
				for _, q := range []string{"topic 3", "chunk 11", "nothing relevant"} {
					got, want := dst.Search(q, 10), src.Search(q, 10)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%d workers: Search(%q) diverges:\n got  %v\n want %v", workers, q, got, want)
					}
				}
				// The derived column view is rebuilt entry for entry.
				if !reflect.DeepEqual(dst.post, src.post) {
					t.Fatalf("%d workers: decoded posting lists differ from the source's", workers)
				}
				// Deterministic bytes: the decoded store re-encodes identically.
				if !bytes.Equal(encodeStore(dst), raw) {
					t.Fatalf("%d workers: re-encoded bytes differ from original encoding", workers)
				}
			}
		})
	}
}

// TestDecodeIntoStoreValidates: a width mismatch, a non-empty target and a
// body cut at any byte are errors, with the target left empty.
func TestDecodeIntoStoreValidates(t *testing.T) {
	src := NewIndex(16)
	fillStore(src, 5)
	raw := encodeStore(src)

	if err := DecodeIntoStore(wal.NewDecoder(raw), NewIndex(32), 1); err == nil {
		t.Fatal("decode accepted a dim mismatch")
	}
	full := NewIndex(16)
	fillStore(full, 1)
	if err := DecodeIntoStore(wal.NewDecoder(raw), full, 1); err == nil {
		t.Fatal("decode accepted a non-empty target store")
	}
	for cut := 0; cut < len(raw); cut++ {
		dst := NewIndex(16)
		d := wal.NewDecoder(raw[:cut])
		if err := DecodeIntoStore(d, dst, 1); err == nil {
			if err := d.Finish(); err == nil {
				t.Fatalf("cut %d: decode of truncated stream succeeded", cut)
			}
		} else if dst.Len() != 0 {
			t.Fatalf("cut %d: a failed decode left %d rows", cut, dst.Len())
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
	err := DecodeIntoStore(wal.NewDecoder(raw), dst, 1)
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
	err = DecodeIntoStore(wal.NewDecoder(e.Bytes()), empty, 1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decode accepted a row count with no rows behind it")
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<10 {
		t.Fatalf("a bare row count cost %d B", b)
	}
}
