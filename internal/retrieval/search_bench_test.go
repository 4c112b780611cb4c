package retrieval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// fullSortSearch reproduces the seed implementation of Index.Search — one
// Hit per indexed chunk, stable full sort — as the baseline the heap
// selector is measured against.
func fullSortSearch(chunks []Chunk, vecs []Vector, qv Vector, k int) []Hit {
	hits := make([]Hit, len(chunks))
	for i := range chunks {
		hits[i] = Hit{Chunk: chunks[i], Score: Cosine(qv, vecs[i])}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Chunk.ID < hits[j].Chunk.ID
	})
	if k > len(hits) {
		k = len(hits)
	}
	return hits[:k]
}

// benchSizes are the corpus scales BenchmarkSearch sweeps, up to the
// end-to-end benchmark's 34,549 chunks.
var benchSizes = []int{1000, 10000, 34549}

func benchCorpusSized(b *testing.B, n, dim int) ([]Chunk, []Vector) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randCorpus(rng, n, dim)
}

// BenchmarkSearch compares, at k=5 across corpus sizes of feature-hashed
// text, the dense reference (Cosine over every row, full sort) with the
// index's term-at-a-time scan. B/op of the index cells is the number to
// watch: it must not depend on n. Run with -benchmem, or via
// `make bench-micro`.
func BenchmarkSearch(b *testing.B) {
	const dim = DefaultDim
	const k = 5
	for _, n := range benchSizes {
		if testing.Short() && n > 10000 {
			continue
		}
		chunks, vecs := benchCorpusSized(b, n, dim)
		qv := Embed("status delayed typhoon airport", dim)

		b.Run(fmt.Sprintf("fullsort/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fullSortSearch(chunks, vecs, qv, k)
			}
		})
		ix := NewIndex(dim)
		ix.AddEmbeddedBatch(chunks, vecs)
		b.Run(fmt.Sprintf("index/n=%d", n), func(b *testing.B) {
			// One scan first, so -benchtime=1x reads a steady scan too and
			// not the one that fills the accumulator pool.
			ix.SearchVector(qv, k, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.SearchVector(qv, k, nil)
			}
		})
	}
}

// BenchmarkSearchTopKWidth sweeps k at a fixed corpus size, the axis where
// heap selection's O(N log k) pays off over O(N log N).
func BenchmarkSearchTopKWidth(b *testing.B) {
	const dim = DefaultDim
	const n = 10000
	chunks, vecs := benchCorpusSized(b, n, dim)
	qv := Embed("status delayed typhoon airport", dim)
	st := indexOf(dim, chunks, vecs)
	for _, k := range []int{1, 5, 20, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st.SearchVector(qv, k, nil)
			}
		})
	}
}
