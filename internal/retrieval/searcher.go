package retrieval

// Searcher is the read-side retrieval contract: cosine top-k over an
// immutable view of the indexed chunks, hits in (score desc, chunk ID asc)
// order with scores bit-identical to Cosine. Index is the only implementation
// in the repository; the interface stays because tests substitute a dense
// full-sort oracle through it (core/retrieval_layer_test.go) and the
// benchmark's per-layer pass holds the serving store by it.
type Searcher interface {
	// Len returns the number of indexed chunks.
	Len() int
	// Dim returns the embedding width, so callers can precompute query
	// vectors for SearchVector.
	Dim() int
	// Search returns the top-k chunks by cosine similarity to the query,
	// ties broken by chunk ID.
	Search(query string, k int) []Hit
	// SearchFiltered is Search restricted to chunks whose source passes
	// keep (nil keeps everything).
	SearchFiltered(query string, k int, keep func(source string) bool) []Hit
	// SearchVector is the embedding-reuse entry point: it runs the same
	// scan against a caller-supplied query vector, so one embedding can
	// serve several sub-searches (multi-hop bridging, doc-ranking fill).
	SearchVector(qv Vector, k int, keep func(source string) bool) []Hit
}

// Store extends Searcher with the write-side operations the ingest engine
// uses: appends and the corpus-size-independent copy-on-write clone behind
// snapshot isolation.
type Store interface {
	Searcher
	// Add inserts a chunk, embedding it inline.
	Add(c Chunk)
	// AddEmbedded inserts a chunk with a precomputed embedding.
	AddEmbedded(c Chunk, v Vector)
	// AddEmbeddedBatch inserts many pre-embedded chunks at once (vs must be
	// parallel to cs). The group committer appends a whole commit group's
	// chunks through this path, under one claim instead of one per chunk. The
	// store does not retain vs: callers may reuse the vectors' memory once it
	// returns.
	AddEmbeddedBatch(cs []Chunk, vs []Vector)
	// CloneForAppend returns a store that shares the receiver's backing
	// storage and its spare capacity; appends to the clone never change what
	// the receiver (a published, read-only snapshot) serves. Who may append
	// in place is the claim-or-fork rule of package lineage: with a linear
	// history — clone the newest snapshot, append, publish — every commit
	// does, at O(rows appended); any other appender forks first, copying the
	// chunk slice and each posting list it then touches.
	CloneForAppend() Store
	// ForEachEmbedded visits every chunk with its stored embedding, in
	// insertion order, which re-inserting through AddEmbedded reproduces.
	// The durability checkpoint serializes stores through it. v is valid only
	// during fn.
	ForEachEmbedded(fn func(c Chunk, v Vector))
}
