package retrieval

import (
	"encoding/binary"
	"fmt"
	"math"

	"multirag/internal/lineage"
	"multirag/internal/wal"
)

// Checkpoint serialization of the retrieval store: the embedding width, the
// chunk count, then every chunk with its stored vector in the store's
// deterministic enumeration order. A chunk's ID, DocID and Source are
// front-coded against the previous chunk's (wal.Encoder.Front): consecutive
// chunks of one document share all but the tail of their ID and all of the
// other two. Decoding posts each row's weights from
// its stored bytes into a caller-supplied empty index, which rebuilds the
// posting lists; only the irreducible chunk+vector data hits the wire.
//
// A vector is stored sparse (EncodeVector): a feature-hashed embedding is
// non-zero in ~14 of its 256 buckets, so a row is ~73 bytes instead of the
// 1,026 of a dense row.

// minStoredChunk is the fewest bytes a chunk takes in a store's encoding:
// three front-coded fields (a prefix length and a suffix length each), its
// text's length and its vector's two counts.
const minStoredChunk = 9

// EncodeVector appends v's stored form (AppendVector) to e.
func EncodeVector(e *wal.Encoder, v Vector) {
	e.Append(func(b []byte) []byte { return AppendVector(b, v) })
}

// AppendVector appends v's stored form to b: the count of its non-zero
// weights, their buckets as uvarint gaps (each bucket minus the previous
// one, the first from -1, so every gap is at least 1), then the weights
// themselves as little-endian F32s. Zeros of either sign are not stored.
func AppendVector(b []byte, v Vector) []byte {
	var stack [DefaultDim]int32 // the non-zero buckets; spills only past DefaultDim
	nz := stack[:0]
	for i, x := range v {
		if x != 0 {
			nz = append(nz, int32(i))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(nz)))
	prev := -1
	for _, i := range nz {
		b = binary.AppendUvarint(b, uint64(int(i)-prev))
		prev = int(i)
	}
	b = binary.AppendUvarint(b, uint64(len(nz)))
	for _, i := range nz {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v[i]))
	}
	return b
}

// weight is one stored weight of a vector: its bucket and its value.
type weight struct {
	b int32
	w float32
}

// readVector reads one vector in the stored form from d, appends its weights
// to nz in ascending bucket order and returns the result. The vector is
// checked as it is read — at most dim weights, buckets strictly ascending
// below dim, as many weights as buckets, every weight non-zero and finite —
// and anything else latches an error on d, with nz returned as it came.
func readVector(d *wal.Decoder, dim int, nz []weight) []weight {
	base := len(nz)
	n := d.Int()
	if d.Err() == nil && n > dim {
		d.Fail(fmt.Errorf("retrieval: decode: %d weights in a vector of width %d", n, dim))
	}
	b := -1
	for i := 0; i < n && d.Err() == nil; i++ {
		gap := d.Uvarint()
		if d.Err() == nil && (gap == 0 || gap > uint64(dim-1-b)) {
			d.Fail(fmt.Errorf("retrieval: decode: bucket gap %d after bucket %d in a vector of width %d", gap, b, dim))
		}
		b += int(gap)
		nz = append(nz, weight{b: int32(b)})
	}
	if m := d.Int(); d.Err() == nil && m != n {
		d.Fail(fmt.Errorf("retrieval: decode: %d weights for %d buckets", m, n))
	}
	for i := base; i < len(nz) && d.Err() == nil; i++ {
		w := d.F32()
		if d.Err() == nil && (w == 0 || math.IsNaN(float64(w)) || math.IsInf(float64(w), 0)) {
			d.Fail(fmt.Errorf("retrieval: decode: bucket %d holds weight %v, want non-zero and finite", nz[i].b, w))
		}
		nz[i].w = w
	}
	if d.Err() != nil {
		return nz[:base]
	}
	return nz
}

// DecodeVector overwrites dst, which sets the width, with one vector read from
// d in the stored form (AppendVector). The vector is checked as it is read —
// at most len(dst) weights, buckets strictly ascending below len(dst), as many
// weights as buckets, every weight non-zero and finite — and anything else
// latches an error on d, leaving dst zero, instead of panicking.
func DecodeVector(d *wal.Decoder, dst Vector) {
	clear(dst)
	var stack [DefaultDim]weight // spills only past DefaultDim
	for _, x := range readVector(d, len(dst), stack[:0]) {
		dst[x.b] = x.w
	}
}

// CheckVector reads one vector in the stored form from d and checks it as
// DecodeVector does, for a store of width dim, without densifying it.
func CheckVector(d *wal.Decoder, dim int) {
	var stack [DefaultDim]weight // spills only past DefaultDim
	readVector(d, dim, stack[:0])
}

// EncodeStore serializes s into e.
func EncodeStore(e *wal.Encoder, s Store) {
	e.Int(s.Dim())
	e.Int(s.Len())
	var prev Chunk
	s.ForEachEmbedded(func(c Chunk, v Vector) {
		e.Front(prev.ID, c.ID)
		e.Front(prev.DocID, c.DocID)
		e.Front(prev.Source, c.Source)
		e.String(c.Text)
		EncodeVector(e, v)
		prev = c
	})
}

// DecodeIntoStore fills the empty index ix from d (the inverse of
// EncodeStore). The index's width must match the encoded one. The chunk slice
// is sized once from the encoded row count, trusted only as far as the bytes
// left could back it, and each row's weights are posted straight from the
// stored bytes, with DecodeVector's checks: no dense row is built. A chunk's
// front-coded fields are read through d's intern table (wal.Decoder.Front),
// so the chunks of one document share their DocID and Source, and a DocID
// shares the copy of the same document a triple's ChunkID decoded earlier in
// the same body. On error ix is left empty.
func DecodeIntoStore(d *wal.Decoder, ix *Index) error {
	dim := d.Int()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if dim != ix.dim {
		return fmt.Errorf("retrieval: decode: encoded dim %d does not match store dim %d", dim, ix.dim)
	}
	if ix.Len() != 0 {
		return fmt.Errorf("retrieval: decode: target store already holds %d chunks", ix.Len())
	}
	ix.chunks = make([]Chunk, 0, min(n, d.Remaining()/minStoredChunk))
	var stack [DefaultDim]weight // spills only past DefaultDim
	var prev Chunk
	for i := 0; i < n; i++ {
		c := Chunk{ID: d.Front(prev.ID), DocID: d.Front(prev.DocID), Source: d.Front(prev.Source), Text: d.String()}
		prev = c
		nz := readVector(d, dim, stack[:0])
		if d.Err() != nil {
			break
		}
		ix.post.addSparse(len(ix.chunks), nz)
		ix.chunks = append(ix.chunks, c)
	}
	if err := d.Err(); err != nil {
		ix.chunks = nil
		clear(ix.post.lists)
		return err
	}
	// The rows were appended without claiming them (nothing else shares a
	// store being decoded); the token starts at the count.
	ix.lin = lineage.New(len(ix.chunks))
	return nil
}
