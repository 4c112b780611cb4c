package retrieval

// Searcher is the read-side retrieval contract: cosine top-k over an
// immutable view of the indexed chunks. The flat Index, the Sharded index
// and the approximate ANN tier all implement it, so the serving engine,
// baselines and benchmarks can swap scan strategies without touching call
// sites.
//
// Every exact implementation returns identical results for identical corpora
// — score for score, hit for hit, in (score desc, chunk ID asc) order —
// which is what lets the engine treat the shard count as a pure performance
// knob. The property tests in sharded_test.go and postings_test.go pin that
// contract against a reference full-sort scan of Cosine. The ANN tier is the
// one deliberate exception: its per-hit scores are still exact (float64
// re-rank), but hits outside the probed cells can be missed, a loss the
// recall harness in internal/bench measures instead of pinning away.
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
	// chunks through this path, under one claim per store touched instead of
	// one per chunk.
	AddEmbeddedBatch(cs []Chunk, vs []Vector)
	// CloneForAppend returns a store that shares the receiver's backing
	// storage and its spare capacity; appends to the clone never change what
	// the receiver (a published, read-only snapshot) serves. Who may append
	// in place is the claim-or-fork rule of package lineage: with a linear
	// history — clone the newest snapshot, append, publish — every commit
	// does, at O(rows appended); any other appender forks first, copying the
	// block table, one partly filled block and each posting list it then
	// touches, per flat index.
	CloneForAppend() Store
	// ForEachEmbedded visits every chunk with its stored embedding, in a
	// deterministic order that re-inserting through AddEmbedded reproduces
	// (flat insertion order for the Index; shard by shard for Sharded, which
	// routes by chunk ID and so re-partitions identically). The durability
	// checkpoint serializes stores through it. Vectors alias internal
	// storage and must not be mutated.
	ForEachEmbedded(fn func(c Chunk, v Vector))
}

// Options configures New.
type Options struct {
	// Dim is the embedding width (<=0 selects DefaultDim).
	Dim int
	// Shards is the number of hash partitions scanned in parallel; <=1
	// selects the flat single-shard index.
	Shards int
	// Workers bounds the per-query shard-scan fan-out (<=0 selects
	// GOMAXPROCS). Ignored by the flat index.
	Workers int
	// ANN selects the approximate IVF tier with exact re-rank (see ann.go).
	// Unlike every other knob it is NOT exact: results can miss candidates
	// outside the probed cells, so it is off by default and A/B'd against
	// the exact scan by the recall harness instead of equivalence-pinned.
	// When set, Shards is ignored.
	ANN bool
	// NProbe is how many coarse-quantizer cells an ANN query probes (<=0
	// selects DefaultNProbe). More probes = higher recall, slower queries.
	NProbe int
	// ANNQuantize runs the ANN coarse pass over an int8-quantized mirror of
	// the vector arena (per-vector scale); final scores are still exact
	// float64 re-ranks. Ignored unless ANN is set.
	ANNQuantize bool
}

// New assembles a Store from opts: the approximate ANN tier when opts.ANN is
// set, a flat Index for Shards <= 1, a Sharded index otherwise.
func New(opts Options) Store {
	if opts.ANN {
		return NewANN(opts)
	}
	if opts.Shards > 1 {
		return NewSharded(opts)
	}
	return NewIndex(opts.Dim)
}
