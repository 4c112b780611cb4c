package retrieval

// Searcher is the benchmark's read-only view of the serving store, nothing
// more: the engine holds *Index, the one implementation, and
// core.System.Serving returns it as a Searcher for the per-layer pass
// (benchmark/layers) to time a scan. Hits come in (score desc, chunk ID asc)
// order with scores bit-identical to a dense dot product.
type Searcher interface {
	// Len returns the number of indexed chunks.
	Len() int
	// Dim returns the embedding width, so callers can precompute query
	// vectors for SearchVector.
	Dim() int
	// SearchVector runs the scan against a caller-supplied query vector.
	SearchVector(qv Vector, k int, keep func(source string) bool) []Hit
}

// Store is the benchmark's write view of the same index: the per-layer pass
// asserts its Searcher to a Store to time one commit's copy-on-write clone
// and batch append.
type Store interface {
	Searcher
	// CloneForAppend returns an index that shares the receiver's backing
	// storage; appends to the clone never change what the receiver serves.
	CloneForAppend() *Index
	// AddEmbeddedBatch inserts many pre-embedded chunks at once (vs parallel
	// to cs); a malformed batch is an error with the store untouched.
	AddEmbeddedBatch(cs []Chunk, vs []Vector) error
}
