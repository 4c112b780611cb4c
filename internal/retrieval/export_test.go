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

// ChunkText splits text into chunks of at most maxTokens tokens, breaking at
// sentence boundaries where possible. maxTokens <= 0 selects the default of
// 64. It collects what ChunkArena.AppendText renders; stage 1 renders into
// its pooled arena instead.
func ChunkText(docID, source, text string, maxTokens int) []Chunk {
	var a ChunkArena
	a.AppendText(docID, a.AppendString(source), text, maxTokens)
	return a.Chunks(nil)
}

// Cosine returns the cosine similarity of two equally sized vectors
// (already-normalised vectors make this the dot product): the dense oracle
// the posting-list scan is held to.
func Cosine(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot float64
	for i := 0; i < n; i++ {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}
