package retrieval

import (
	"fmt"
	"math"

	"multirag/internal/wal"
)

// Checkpoint serialization of the retrieval store: the embedding width, the
// chunk count, then every chunk with its stored vector in the store's
// deterministic enumeration order. Decoding re-inserts through the normal
// append path of a caller-supplied empty store, which rebuilds the posting
// lists; only the irreducible chunk+vector data hits the wire.
//
// A vector is stored sparse (EncodeVector): a feature-hashed embedding is
// non-zero in ~14 of its 256 buckets, so a row is ~73 bytes instead of the
// 1,026 of a dense row.

// decodeBatch bounds how many chunks DecodeIntoStore buffers per
// AddEmbeddedBatch call, so decoding never holds a second full copy of the
// corpus in flight.
const decodeBatch = 1024

// EncodeVector appends v's stored form: the count of its non-zero weights,
// their buckets as uvarint gaps (each bucket minus the previous one, the
// first from -1, so every gap is at least 1), then the weights themselves as
// F32s. Zeros of either sign are not stored.
func EncodeVector(e *wal.Encoder, v Vector) {
	var stack [DefaultDim]int32 // the non-zero buckets; spills only past DefaultDim
	nz := stack[:0]
	for b, x := range v {
		if x != 0 {
			nz = append(nz, int32(b))
		}
	}
	e.Int(len(nz))
	prev := -1
	for _, b := range nz {
		e.Int(int(b) - prev)
		prev = int(b)
	}
	e.Int(len(nz))
	for _, b := range nz {
		e.F32(v[b])
	}
}

// DecodeVector overwrites dst, which sets the width, with one vector read from
// d in the EncodeVector form. The vector is checked as it is read — at most
// len(dst) weights, buckets strictly ascending below len(dst), as many weights
// as buckets, every weight non-zero and finite — and anything else latches an
// error on d instead of panicking.
func DecodeVector(d *wal.Decoder, dst Vector) {
	clear(dst)
	n := d.Int()
	if d.Err() == nil && n > len(dst) {
		d.Fail(fmt.Errorf("retrieval: decode: %d weights in a vector of width %d", n, len(dst)))
	}
	var stack [DefaultDim]int32 // the buckets until their weights follow; spills only past DefaultDim
	buckets := stack[:0]
	b := -1
	for i := 0; i < n && d.Err() == nil; i++ {
		gap := d.Uvarint()
		if d.Err() == nil && (gap == 0 || gap > uint64(len(dst)-1-b)) {
			d.Fail(fmt.Errorf("retrieval: decode: bucket gap %d after bucket %d in a vector of width %d", gap, b, len(dst)))
		}
		b += int(gap)
		buckets = append(buckets, int32(b))
	}
	if m := d.Int(); d.Err() == nil && m != n {
		d.Fail(fmt.Errorf("retrieval: decode: %d weights for %d buckets", m, n))
	}
	for _, b := range buckets {
		w := d.F32()
		if d.Err() != nil {
			return
		}
		if w == 0 || math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
			d.Fail(fmt.Errorf("retrieval: decode: bucket %d holds weight %v, want non-zero and finite", b, w))
			return
		}
		dst[b] = w
	}
}

// EncodeStore serializes s into e.
func EncodeStore(e *wal.Encoder, s Store) {
	e.Int(s.Dim())
	e.Int(s.Len())
	s.ForEachEmbedded(func(c Chunk, v Vector) {
		e.String(c.ID)
		e.String(c.DocID)
		e.String(c.Source)
		e.String(c.Text)
		EncodeVector(e, v)
	})
}

// DecodeIntoStore fills the empty store s from d (the inverse of
// EncodeStore). The store's width
// must match the encoded one. Each batch of rows is decoded into one reused
// flat buffer, which the store does not retain. A chunk's DocID and Source,
// shared by every chunk of one document, are read through d's intern table.
func DecodeIntoStore(d *wal.Decoder, s Store) error {
	dim := d.Int()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if dim != s.Dim() {
		return fmt.Errorf("retrieval: decode: encoded dim %d does not match store dim %d", dim, s.Dim())
	}
	if s.Len() != 0 {
		return fmt.Errorf("retrieval: decode: target store already holds %d chunks", s.Len())
	}
	batch := min(n, decodeBatch, d.Remaining())
	cs := make([]Chunk, 0, batch)
	vs := make([]Vector, batch)
	flat := make([]float32, batch*dim)
	for i := range vs {
		vs[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	for i := 0; i < n; i++ {
		c := Chunk{ID: d.String(), DocID: d.Interned(), Source: d.Interned(), Text: d.String()}
		if d.Err() != nil {
			break // before indexing vs, which is empty when no bytes were left
		}
		DecodeVector(d, vs[len(cs)])
		if d.Err() != nil {
			break
		}
		cs = append(cs, c)
		if len(cs) == batch {
			s.AddEmbeddedBatch(cs, vs)
			cs = cs[:0]
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(cs) > 0 {
		s.AddEmbeddedBatch(cs, vs[:len(cs)])
	}
	return nil
}
