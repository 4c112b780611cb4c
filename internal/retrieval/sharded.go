package retrieval

import (
	"context"
	"fmt"

	"multirag/internal/par"
	"multirag/internal/textutil"
)

// Sharded is a hash-partitioned exact index: chunks are routed to one of n
// flat shards by a stable hash of their chunk ID, and a query scans the
// shards in parallel via the internal/par fan-out primitive (bounded per
// query by Options.Workers; concurrent queries each fan out independently),
// merging per-shard top-k results. Every chunk is in exactly one shard, so
// per-shard top-k plus a merge is exactly global top-k. Results are
// bit-identical to the flat Index: a row's score does not depend on which
// rows it is stored with, and the merge re-ranks with the same (score desc,
// ID asc) comparator.
//
// Copy-on-write works per shard: every shard carries its own lineage token
// (Index.claim), so an ingest commit appends in place behind each touched
// shard's published len — or forks just that shard — while published
// snapshots keep serving their own prefix: PR 1's snapshot-isolation
// contract, preserved shard by shard.
type Sharded struct {
	dim     int
	workers int
	shards  []*Index
}

// NewSharded builds an empty sharded index from opts (Shards must be >= 2;
// use New to fall back to the flat index otherwise).
func NewSharded(opts Options) *Sharded {
	dim := opts.Dim
	if dim <= 0 {
		dim = DefaultDim
	}
	s := &Sharded{dim: dim, workers: opts.Workers, shards: make([]*Index, opts.Shards)}
	for i := range s.shards {
		s.shards[i] = NewIndex(dim)
	}
	return s
}

// shardOf routes a chunk ID to its home shard. The hash is salted so shard
// routing is independent of the embedding bucket hash.
func (s *Sharded) shardOf(id string) int {
	return int(textutil.Hash64("shard|"+id) % uint64(len(s.shards)))
}

// Add inserts a chunk, embedding it inline.
func (s *Sharded) Add(c Chunk) { s.AddEmbedded(c, Embed(c.Text, s.dim)) }

// AddEmbedded inserts a chunk with a precomputed embedding into its home
// shard.
func (s *Sharded) AddEmbedded(c Chunk, v Vector) {
	s.shards[s.shardOf(c.ID)].AddEmbedded(c, v)
}

// AddEmbeddedBatch routes a parallel run of pre-embedded chunks to their home
// shards: one routing hash per chunk, then one batched append — one claim —
// per shard that received anything. The batch is validated
// before any shard is touched, so a malformed batch can never leave some
// shards mutated and others not.
func (s *Sharded) AddEmbeddedBatch(cs []Chunk, vs []Vector) {
	if len(cs) != len(vs) {
		panic(fmt.Sprintf("retrieval: AddEmbeddedBatch got %d chunks but %d vectors", len(cs), len(vs)))
	}
	for i := range vs {
		if len(vs[i]) != s.dim {
			panic(fmt.Sprintf("retrieval: AddEmbeddedBatch vector %d dim %d does not match index dim %d (chunk %s)",
				i, len(vs[i]), s.dim, cs[i].ID))
		}
	}
	if len(cs) == 1 {
		s.AddEmbedded(cs[0], vs[0])
		return
	}
	byShard := make([][]int, len(s.shards))
	for i := range cs {
		sh := s.shardOf(cs[i].ID)
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, ords := range byShard {
		if len(ords) == 0 {
			continue
		}
		cc := make([]Chunk, len(ords))
		vv := make([]Vector, len(ords))
		for j, o := range ords {
			cc[j] = cs[o]
			vv[j] = vs[o]
		}
		s.shards[sh].AddEmbeddedBatch(cc, vv)
	}
}

// CloneForAppend clones every shard (O(shards × dim) slice headers),
// preserving the per-shard copy-on-write contract.
func (s *Sharded) CloneForAppend() Store {
	clone := &Sharded{dim: s.dim, workers: s.workers, shards: make([]*Index, len(s.shards))}
	for i, sh := range s.shards {
		clone.shards[i] = sh.clone()
	}
	return clone
}

// ForEachEmbedded visits every chunk with its stored vector, shard by shard
// in shard order. Re-inserting the sequence through AddEmbedded routes every
// chunk back to its original shard (routing hashes only the chunk ID), so the
// enumeration order is reproduced exactly after a decode round-trip.
func (s *Sharded) ForEachEmbedded(fn func(c Chunk, v Vector)) {
	for _, sh := range s.shards {
		sh.ForEachEmbedded(fn)
	}
}

// Len returns the number of indexed chunks across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Dim returns the embedding width.
func (s *Sharded) Dim() int { return s.dim }

// Search returns the top-k chunks by cosine similarity to the query.
func (s *Sharded) Search(query string, k int) []Hit {
	return s.SearchFiltered(query, k, nil)
}

// SearchFiltered is Search restricted to chunks whose source passes keep.
func (s *Sharded) SearchFiltered(query string, k int, keep func(source string) bool) []Hit {
	if k <= 0 || s.Len() == 0 {
		return nil
	}
	return s.SearchVector(Embed(query, s.dim), k, keep)
}

// SearchVector fans the scan out across the shards and merges the per-shard
// winners.
func (s *Sharded) SearchVector(qv Vector, k int, keep func(source string) bool) []Hit {
	hits, _ := s.search(context.Background(), qv, k, keep)
	return hits
}

// search stops claiming shards once ctx is done. A per-shard scan errors only
// when ctx is done, which the fan-out's own final ctx check reports — no
// separate error channel needed.
func (s *Sharded) search(ctx context.Context, qv Vector, k int, keep func(string) bool) ([]Hit, error) {
	if k <= 0 {
		return nil, ctx.Err()
	}
	perShard := make([][]Hit, len(s.shards))
	if err := par.ForEachCtx(ctx, s.workers, len(s.shards), func(i int) {
		perShard[i], _ = s.shards[i].search(ctx, qv, k, keep)
	}); err != nil {
		return nil, err
	}
	return mergeTopK(k, perShard), nil
}
