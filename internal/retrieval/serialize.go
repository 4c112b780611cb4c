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

// EncodeStore serializes ix into e: its chunks, straight from the chunk
// column, with no vector gathered back out of the posting lists.
func EncodeStore(e *wal.Encoder, ix *Index) {
	n := ix.chunks.len()
	e.Int(ix.dim)
	e.Int(n)
	var prev Chunk
	for _, run := range ix.chunks.runs(0, n) {
		for j := range run {
			c := &run[j]
			e.Front(prev.ID, c.ID)
			e.Front(prev.DocID, c.DocID)
			e.Front(prev.Source, c.Source)
			e.String(c.Text)
			prev = *c
		}
	}
}

// DecodeChunk reads one chunk written as EncodeStore writes each, front-coded
// against prev, the chunk read before it (zero for the first). Its ID, which
// never repeats, is read without d's intern table (FrontFresh); its DocID,
// when the ID begins with it, is that prefix of the ID (FrontPrefix), and
// otherwise, like its Source, the table's copy (Front), which a triple's
// ChunkID or Source decoded earlier through d may already hold. What is new
// is kept in d's arena when it has one (wal.Decoder.SetArena), so a decoded
// chunk is not four strings of its own.
func DecodeChunk(d *wal.Decoder, prev *Chunk) Chunk {
	id := d.FrontFresh(prev.ID)
	return Chunk{ID: id, DocID: d.FrontPrefix(prev.DocID, id), Source: d.Front(prev.Source), Text: d.String()}
}

// DecodeIntoStore fills the empty index ix from d (the inverse of
// EncodeStore), re-embedding rows on up to workers goroutines (<= 0 selects
// GOMAXPROCS). The index's width must match the encoded one. Each chunk is
// read by DecodeChunk into the chunk column, which grows a block at a time,
// so the encoded row count sizes nothing. On error ix is left empty.
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
	var prev Chunk
	for i := 0; i < n && d.Err() == nil; i++ {
		c := DecodeChunk(d, &prev)
		ix.chunks.push(c)
		prev = c
	}
	if err := d.Err(); err != nil {
		ix.chunks = blocks[Chunk]{}
		return err
	}
	ix.postEmbedded(workers)
	// The rows were appended without claiming them (nothing else shares a
	// store being decoded); the token starts at the count.
	ix.lin = lineage.New(ix.chunks.len())
	return nil
}

// embedBlock is how many rows one worker re-embeds per task when a decoded
// store is rebuilt.
const embedBlock = 512

// postEmbedded posts the embeddings of ix's chunks, whose posting lists are
// empty. Blocks of embedBlock rows are embedded into sparse slabs on up to
// workers goroutines, while the calling goroutine posts the finished blocks in
// row order, which keeps every posting list sorted by row. A decode holds a ring of one slab more than it
// runs workers: block i embeds into slot i mod the ring's size, once the
// poster is done with the block before it in that slot. Blocks are handed
// out in order and the lowest unfinished one never waits, so the ring bounds
// how far the workers run ahead of the poster without stalling it.
func (ix *Index) postEmbedded(workers int) {
	n := ix.chunks.len()
	blocks := (n + embedBlock - 1) / embedBlock
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
		for _, run := range ix.chunks.runs(i*embedBlock, min((i+1)*embedBlock, n)) {
			for j := range run {
				slab.Embed(scratch, run[j].Text)
			}
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
