package retrieval

import (
	"fmt"
	"runtime"

	"multirag/internal/lineage"
	"multirag/internal/par"
	"multirag/internal/wal"
)

// Checkpoint serialization of the retrieval store: the embedding width, the
// chunk count, then every chunk — ID, DocID, Source, Text — in insertion
// order. A chunk's ID, DocID and Source are front-coded against the previous
// chunk's (wal.Encoder.Front): consecutive chunks of one document share all
// but the tail of their ID and all of the other two.
//
// Vectors are not stored. Every row of a store a system serves is
// Embed(Text, dim), a pure function of bytes the body already holds, so
// decoding re-embeds each text (EmbedInto, bit for bit what ingest embedded)
// and posts its weights, rebuilding the posting lists.

// minStoredChunk is the fewest bytes a chunk takes in a store's encoding:
// three front-coded fields (a prefix length and a suffix length each) and its
// text's length.
const minStoredChunk = 7

// EncodeStore serializes ix into e: its chunks, straight from the chunk
// slice, with no vector gathered back out of the posting lists.
func EncodeStore(e *wal.Encoder, ix *Index) {
	e.Int(ix.dim)
	e.Int(len(ix.chunks))
	var prev Chunk
	for i := range ix.chunks {
		c := &ix.chunks[i]
		e.Front(prev.ID, c.ID)
		e.Front(prev.DocID, c.DocID)
		e.Front(prev.Source, c.Source)
		e.String(c.Text)
		prev = *c
	}
}

// DecodeIntoStore fills the empty index ix from d (the inverse of
// EncodeStore), re-embedding rows on up to workers goroutines (<= 0 selects
// GOMAXPROCS). The index's width must match the encoded one. The chunk slice
// is sized once from the encoded row count, trusted only as far as the bytes
// left could back it. A chunk's DocID and Source are read through d's intern
// table (wal.Decoder.Front), so the chunks of one document share them, and a
// DocID shares the copy of the same document a triple's ChunkID decoded
// earlier in the same body; its ID, which never repeats, is read without the
// table (FrontFresh). On error ix is left empty.
func DecodeIntoStore(d *wal.Decoder, ix *Index, workers int) error {
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
	// A quarter more room than the rows (as appendChunks leaves), so the
	// appends a decoded store is about to take — a replica's applies, a
	// reopened primary's commits — do not first copy every row.
	chunks := make([]Chunk, 0, min(n+n/4, d.Remaining()/minStoredChunk))
	var prev Chunk
	for i := 0; i < n && d.Err() == nil; i++ {
		c := Chunk{ID: d.FrontFresh(prev.ID), DocID: d.Front(prev.DocID), Source: d.Front(prev.Source), Text: d.String()}
		chunks = append(chunks, c)
		prev = c
	}
	if err := d.Err(); err != nil {
		return err
	}
	ix.postEmbedded(chunks, workers)
	ix.chunks = chunks
	// The rows were appended without claiming them (nothing else shares a
	// store being decoded); the token starts at the count.
	ix.lin = lineage.New(len(ix.chunks))
	return nil
}

// embedBlock is how many rows one worker re-embeds per task when a decoded
// store is rebuilt.
const embedBlock = 512

// postEmbedded posts the embeddings of cs as the first rows of the empty
// index ix. Blocks of embedBlock rows are embedded into sparse slabs on up to
// workers goroutines, while the calling goroutine posts the finished blocks in
// row order, which keeps every posting list sorted by row. A decode holds a ring of one slab more than it
// runs workers: block i embeds into slot i mod the ring's size, once the
// poster is done with the block before it in that slot. Blocks are handed
// out in order and the lowest unfinished one never waits, so the ring bounds
// how far the workers run ahead of the poster without stalling it.
func (ix *Index) postEmbedded(cs []Chunk, workers int) {
	blocks := (len(cs) + embedBlock - 1) / embedBlock
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	slots := make([]Sparse, min(workers+1, blocks))
	done := make([]chan struct{}, blocks)
	posted := make([]chan struct{}, blocks)
	for i := range done {
		done[i], posted[i] = make(chan struct{}), make(chan struct{})
	}
	go par.ForEach(workers, blocks, func(i int) {
		if i >= len(slots) {
			<-posted[i-len(slots)]
		}
		slab := &slots[i%len(slots)]
		slab.Reset()
		slab.Grow(embedBlock)
		scratch := make(Vector, ix.dim)
		for _, c := range cs[i*embedBlock : min((i+1)*embedBlock, len(cs))] {
			slab.Embed(scratch, c.Text)
		}
		close(done[i])
	})
	for i := range blocks {
		<-done[i]
		row := i * embedBlock
		slots[i%len(slots)].each(func(j int, nz []weight) { ix.post.addSparse(row+j, nz) })
		close(posted[i])
	}
}
