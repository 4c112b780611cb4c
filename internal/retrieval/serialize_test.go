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
		opts Options
		n    int
	}{
		{"flat-empty", Options{Dim: 32}, 0},
		{"flat", Options{Dim: 32}, 50},
		// More rows than one decode batch: posting lists continue across it.
		{"postings", Options{Dim: 32}, decodeBatch + 76},
		{"sharded", Options{Dim: 32, Shards: 4}, 120},
		{"ann", Options{Dim: 32, ANN: true}, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := New(tc.opts)
			fillStore(src, tc.n)
			raw := encodeStore(src)
			dst := New(tc.opts)
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
			if ix, ok := src.(*Index); ok && !reflect.DeepEqual(dst.(*Index).post, ix.post) {
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
	src := New(Options{Dim: 16})
	fillStore(src, 5)
	raw := encodeStore(src)

	if err := DecodeIntoStore(wal.NewDecoder(raw), New(Options{Dim: 32})); err == nil {
		t.Fatal("decode accepted a dim mismatch")
	}
	full := New(Options{Dim: 16})
	fillStore(full, 1)
	if err := DecodeIntoStore(wal.NewDecoder(raw), full); err == nil {
		t.Fatal("decode accepted a non-empty target store")
	}
	for cut := 0; cut < len(raw); cut++ {
		dst := New(Options{Dim: 16})
		d := wal.NewDecoder(raw[:cut])
		if err := DecodeIntoStore(d, dst); err == nil {
			if err := d.Finish(); err == nil {
				t.Fatalf("cut %d: decode of truncated stream succeeded", cut)
			}
		}
	}
}

// blockWatch wraps a store being filled and remembers the address of every
// arena block it has seen, so a block that moved — was copied — shows.
type blockWatch struct {
	Store
	arenas []*arena
	bases  [][]*float32 // bases[a][b]: first address seen for block b of arena a
	moved  int
}

func watchBlocks(s Store) *blockWatch {
	w := &blockWatch{Store: s}
	switch st := s.(type) {
	case *Index:
		w.arenas = []*arena{&st.arena}
	case *ANN:
		w.arenas = []*arena{&st.arena}
	case *Sharded:
		for _, sh := range st.shards {
			w.arenas = append(w.arenas, &sh.arena)
		}
	}
	w.bases = make([][]*float32, len(w.arenas))
	return w
}

func (w *blockWatch) AddEmbeddedBatch(cs []Chunk, vs []Vector) {
	w.Store.AddEmbeddedBatch(cs, vs)
	for i, a := range w.arenas {
		for b, blk := range a.blocks {
			if b == len(w.bases[i]) {
				w.bases[i] = append(w.bases[i], &blk[0])
			} else if w.bases[i][b] != &blk[0] {
				w.moved++
			}
		}
	}
}

// TestDecodeAllocatesBlocksOnce: a decode of n rows leaves every arena with
// exactly ⌈rows/blockRows⌉ blocks, none of which moved while the store was
// filled — loading a corpus copies no stored row, with nothing reserved up
// front.
func TestDecodeAllocatesBlocksOnce(t *testing.T) {
	const n = 5*decodeBatch + 300
	for name, opts := range map[string]Options{
		"flat":     {Dim: 16},
		"sharded8": {Dim: 16, Shards: 8},
		"ann":      {Dim: 16, ANN: true},
	} {
		src := New(opts)
		fillStore(src, n)
		w := watchBlocks(New(opts))
		if err := DecodeIntoStore(wal.NewDecoder(encodeStore(src)), w); err != nil {
			t.Fatal(err)
		}
		if w.Len() != n {
			t.Fatalf("%s: decoded %d of %d rows", name, w.Len(), n)
		}
		if w.moved != 0 {
			t.Fatalf("%s: %d arena blocks were copied during one decode", name, w.moved)
		}
		for i, a := range w.arenas {
			if want := (a.len() + blockRows - 1) / blockRows; len(a.blocks) != want {
				t.Fatalf("%s: arena %d holds %d rows in %d blocks, want %d", name, i, a.len(), len(a.blocks), want)
			}
		}
	}
	// A row count with no rows behind it allocates nothing: the decode fails
	// on the truncated stream.
	var e wal.Encoder
	e.Int(16)
	e.Int(1 << 40)
	if err := DecodeIntoStore(wal.NewDecoder(e.Bytes()), New(Options{Dim: 16})); err == nil {
		t.Fatal("decode accepted a row count with no rows behind it")
	}
}
