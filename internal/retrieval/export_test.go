package retrieval

import "context"

// Accumulate runs the scan's first pass alone for the external benchmarks:
// qv's contribution added to every row's score in acc (len(acc) == Len()).
func (ix *Index) Accumulate(qv Vector, acc []float64) {
	_ = ix.post.accumulate(context.Background(), qv, acc)
}

// SelectTopK runs the scan's second pass alone for the external benchmarks:
// the k best rows by their scores in acc, which it leaves as it found them.
func (ix *Index) SelectTopK(acc []float64, k int) []Hit {
	t := newTopK(k)
	for i, score := range acc {
		t.consider(&ix.chunks[i], score)
	}
	return t.sorted()
}
