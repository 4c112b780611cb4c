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
	// AddEmbedded inserts a chunk with a precomputed embedding; a vector of
	// the wrong width is an error.
	AddEmbedded(c Chunk, v Vector) error
	// AddEmbeddedBatch inserts many pre-embedded chunks at once (vs must be
	// parallel to cs), under one claim instead of one per chunk; a malformed
	// batch is an error with the store untouched. The store does not retain
	// vs: callers may reuse the vectors' memory once it returns.
	AddEmbeddedBatch(cs []Chunk, vs []Vector) error
	// AppendSparse is AddEmbeddedBatch for embeddings in sparse form (see
	// Sparse), checked before anything is appended. The group committer,
	// replica apply and recovery append a file's chunks through it. The
	// store does not retain rows.
	AppendSparse(cs []Chunk, rows *Sparse) error
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
	// v is valid only during fn.
	ForEachEmbedded(fn func(c Chunk, v Vector))
}
