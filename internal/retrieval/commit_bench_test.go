package retrieval

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCommitAppend measures what one ingest commit costs the retrieval
// store: clone the newest snapshot, append a 4-row batch, make the clone the
// newest — at the corpus size of the end-to-end benchmark (34,549 chunks ×
// 256 dims). History is linear, so every iteration takes the in-place path;
// B/op is the number to watch: the posting-list headers each clone copies,
// plus the occasional growth step of the chunk slice and a posting list.
// Run with -benchmem, or via `make bench-micro`.
func BenchmarkCommitAppend(b *testing.B) {
	const (
		rows = 34549
		dim  = DefaultDim
	)
	rng := rand.New(rand.NewSource(1))
	chunks, vecs := randCorpus(rng, rows, dim)
	// A pool of batches, so the loop allocates nothing of its own. Repeated
	// IDs are harmless: the store does not deduplicate.
	type batch struct {
		cs []Chunk
		vs []Vector
	}
	pool := make([]batch, 256)
	for i := range pool {
		pool[i].cs, pool[i].vs = randCorpus(rng, 4, dim)
		for j := range pool[i].cs {
			pool[i].cs[j].ID = fmt.Sprintf("b%03d-%d#c0", i, j)
		}
	}
	cur := NewIndex(dim)
	cur.AddEmbeddedBatch(chunks, vecs)
	commit := func(i int) {
		next := cur.CloneForAppend()
		next.AddEmbeddedBatch(pool[i%len(pool)].cs, pool[i%len(pool)].vs)
		cur = next
	}
	// A few commits first, so -benchtime=1x measures a steady commit and not
	// the bulk-loaded chunk slice's first growth step.
	for i := 0; i < 16; i++ {
		commit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(i)
	}
}
