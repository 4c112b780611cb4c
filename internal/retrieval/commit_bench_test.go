package retrieval

import (
	"fmt"
	"math/rand"
	"testing"
)

// commitBatch is one commit's chunks with their embeddings, dense and sparse.
type commitBatch struct {
	cs   []Chunk
	vs   []Vector
	rows *Sparse
}

// benchStore returns a store at the corpus size of the end-to-end benchmark
// (34,549 chunks × 256 dims) and a pool of 4-row commit batches, so a
// benchmark loop allocates nothing of its own. Repeated IDs are harmless:
// the store does not deduplicate.
func benchStore() (*Index, []commitBatch) {
	const (
		rows = 34549
		dim  = DefaultDim
	)
	rng := rand.New(rand.NewSource(1))
	chunks, vecs := randCorpus(rng, rows, dim)
	pool := make([]commitBatch, 256)
	for i := range pool {
		pool[i].cs, pool[i].vs = randCorpus(rng, 4, dim)
		for j := range pool[i].cs {
			pool[i].cs[j].ID = fmt.Sprintf("b%03d-%d#c0", i, j)
		}
		pool[i].rows = sparseOf(pool[i].vs, dim)
	}
	ix := NewIndex(dim)
	ix.AddEmbeddedBatch(chunks, vecs)
	return ix, pool
}

// BenchmarkCommitAppend measures what one ingest commit costs the retrieval
// store: clone the newest snapshot, append a 4-row batch, make the clone the
// newest — at the corpus size of the end-to-end benchmark. History is
// linear, so every iteration takes the in-place path; B/op is the number to
// watch: the posting-list headers each clone copies, plus the blocks the
// appends fill. Run with -benchmem, or via `make bench-micro`.
func BenchmarkCommitAppend(b *testing.B) {
	cur, pool := benchStore()
	commit := func(i int) {
		next := cur.CloneForAppend()
		next.AddEmbeddedBatch(pool[i%len(pool)].cs, pool[i%len(pool)].vs)
		cur = next
	}
	// A few commits first, so -benchtime=1x measures a steady commit and not
	// the bulk-loaded columns' first blocks.
	for i := 0; i < 16; i++ {
		commit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(i)
	}
}

// BenchmarkReplicaFirstApplies measures what a replica seeded as a clone of
// its primary's snapshot pays its store on its first applies: the primary
// commits nine 4-row batches after the seed, then the replica applies the
// same nine (clone, AppendSparse, publish each), at the corpus size of the
// end-to-end benchmark. The first apply loses the lineage claim and forks —
// each column it appends to copies its spine and its partly filled tail
// block — so B/op is the fork plus nine appends, and does not grow with the
// corpus. Run with -benchmem, or via `make bench-micro`.
func BenchmarkReplicaFirstApplies(b *testing.B) {
	const applies = 9
	primary, pool := benchStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replica := primary
		for k := range applies {
			next := primary.CloneForAppend()
			batch := &pool[(i*applies+k)%len(pool)]
			next.AppendSparse(batch.cs, batch.rows)
			primary = next
		}
		b.StartTimer()
		for k := range applies {
			next := replica.CloneForAppend()
			batch := &pool[(i*applies+k)%len(pool)]
			next.AppendSparse(batch.cs, batch.rows)
			replica = next
		}
	}
}
