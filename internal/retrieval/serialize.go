package retrieval

import (
	"fmt"

	"multirag/internal/wal"
)

// Checkpoint serialization of the retrieval store: the embedding width, the
// chunk count, then every chunk with its stored vector in the store's
// deterministic enumeration order. Decoding re-inserts through the normal
// append path of a caller-supplied empty store, which rebuilds the posting
// lists; only the irreducible chunk+vector data hits the wire.

// decodeBatch bounds how many chunks DecodeIntoStore buffers per
// AddEmbeddedBatch call, so decoding never holds a second full copy of the
// corpus in flight.
const decodeBatch = 1024

// EncodeStore serializes s into e.
func EncodeStore(e *wal.Encoder, s Store) {
	e.Int(s.Dim())
	e.Int(s.Len())
	s.ForEachEmbedded(func(c Chunk, v Vector) {
		e.String(c.ID)
		e.String(c.DocID)
		e.String(c.Source)
		e.String(c.Text)
		e.F32s(v)
	})
}

// DecodeIntoStore fills the empty store s from d (the inverse of
// EncodeStore). The store's width must match the encoded one; every vector is
// validated against it before insertion, so a corrupt payload errors instead
// of tripping the store's dim panic.
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
	cs := make([]Chunk, 0, min(n, decodeBatch))
	vs := make([]Vector, 0, min(n, decodeBatch))
	for i := 0; i < n && d.Err() == nil; i++ {
		c := Chunk{ID: d.String(), DocID: d.String(), Source: d.String(), Text: d.String()}
		v := d.F32s()
		if d.Err() != nil {
			break
		}
		if len(v) != dim {
			return fmt.Errorf("retrieval: decode: chunk %s vector dim %d does not match %d", c.ID, len(v), dim)
		}
		cs = append(cs, c)
		vs = append(vs, v)
		if len(cs) == decodeBatch {
			s.AddEmbeddedBatch(cs, vs)
			cs, vs = cs[:0], vs[:0]
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(cs) > 0 {
		s.AddEmbeddedBatch(cs, vs)
	}
	return nil
}
