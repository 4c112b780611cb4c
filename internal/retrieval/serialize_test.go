package retrieval

import (
	"bytes"
	"fmt"
	"reflect"
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
		// More rows than one decode batch: posting lists continue across it.
		{"postings", decodeBatch + 76},
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

// blockWatch wraps an index being filled and remembers the address of every
// arena block it has seen, so a block that moved — was copied — shows.
type blockWatch struct {
	*Index
	bases []*float32 // bases[b]: first address seen for block b
	moved int
}

func (w *blockWatch) AddEmbeddedBatch(cs []Chunk, vs []Vector) {
	w.Index.AddEmbeddedBatch(cs, vs)
	for b, blk := range w.arena.blocks {
		if b == len(w.bases) {
			w.bases = append(w.bases, &blk[0])
		} else if w.bases[b] != &blk[0] {
			w.moved++
		}
	}
}

// TestDecodeAllocatesBlocksOnce: a decode of n rows leaves the arena with
// exactly ⌈n/blockRows⌉ blocks, none of which moved while the store was
// filled — loading a corpus copies no stored row, with nothing reserved up
// front.
func TestDecodeAllocatesBlocksOnce(t *testing.T) {
	const n = 5*decodeBatch + 300
	src := NewIndex(16)
	fillStore(src, n)
	w := &blockWatch{Index: NewIndex(16)}
	if err := DecodeIntoStore(wal.NewDecoder(encodeStore(src)), w); err != nil {
		t.Fatal(err)
	}
	if w.Len() != n {
		t.Fatalf("decoded %d of %d rows", w.Len(), n)
	}
	if w.moved != 0 {
		t.Fatalf("%d arena blocks were copied during one decode", w.moved)
	}
	if want := (n + blockRows - 1) / blockRows; w.arena.len() != n || len(w.arena.blocks) != want {
		t.Fatalf("arena holds %d rows in %d blocks, want %d in %d", w.arena.len(), len(w.arena.blocks), n, want)
	}
	// A row count with no rows behind it allocates nothing: the decode fails
	// on the truncated stream.
	var e wal.Encoder
	e.Int(16)
	e.Int(1 << 40)
	if err := DecodeIntoStore(wal.NewDecoder(e.Bytes()), NewIndex(16)); err == nil {
		t.Fatal("decode accepted a row count with no rows behind it")
	}
}
