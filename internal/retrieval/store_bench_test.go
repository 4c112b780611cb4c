package retrieval_test

import (
	"fmt"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/core"
	"multirag/internal/datasets"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// storeBenchRows is the end-to-end benchmark's corpus size.
const storeBenchRows = 34549

// datasetsStore renders the four fusion presets the way the engine ingests
// them (adapter fusion, then core.RenderChunks), with entity counts scaled
// until they yield n chunks, and loads the first n into an index: rows as
// sparse as the served corpus's, which a small-vocabulary corpus is not.
func datasetsStore(b *testing.B, n int) *retrieval.Index {
	b.Helper()
	var chunks []retrieval.Chunk
	for mult := 1; len(chunks) < n; mult *= 2 {
		chunks = chunks[:0]
		for _, spec := range datasets.AllPresets(1) {
			spec.Entities *= mult
			d, err := datasets.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			fused, err := adapter.NewRegistry().Fuse(d.Files)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range fused {
				chunks = append(chunks, core.RenderChunks(f, 0)...)
			}
		}
	}
	chunks = chunks[:n]
	vecs := make([]retrieval.Vector, n)
	for i := range chunks {
		vecs[i] = retrieval.Embed(chunks[i].Text, retrieval.DefaultDim)
	}
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	ix.AddEmbeddedBatch(chunks, vecs)
	return ix
}

// BenchmarkEncodeStore measures one checkpoint-sized serialisation of a
// 34,549 × 256 store of datasets text into a buffer sized for the body, as
// the checkpoint sizes it: the chunk strings, front-coded, and no vectors.
// Run with -benchmem, or via `make bench-micro`.
func BenchmarkEncodeStore(b *testing.B) {
	ix := datasetsStore(b, storeBenchRows)
	var sized wal.Encoder
	retrieval.EncodeStore(&sized, ix)
	b.ReportMetric(float64(sized.Len()), "body-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e wal.Encoder
		e.Grow(sized.Len())
		retrieval.EncodeStore(&e, ix)
	}
}

// BenchmarkDecodeStore measures loading that store's encoding into an empty
// index: the chunk strings, every text re-embedded on GOMAXPROCS workers and
// the rebuilt posting lists.
func BenchmarkDecodeStore(b *testing.B) {
	var e wal.Encoder
	retrieval.EncodeStore(&e, datasetsStore(b, storeBenchRows))
	body := e.Bytes()
	b.ReportMetric(float64(len(body)), "body-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := retrieval.DecodeIntoStore(wal.NewDecoder(body), retrieval.NewIndex(retrieval.DefaultDim), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuery is a free-text query of the kind the end-to-end benchmark's
// fallback lane sends.
const benchQuery = "Tell me something about The Silent Horizon and its director please"

// BenchmarkAccumulate measures the exact scan's first pass on its own: one
// query's term-at-a-time accumulation over the posting lists of the
// 34,549-row datasets store (BenchmarkSearch times it together with the
// selection). It allocates nothing.
func BenchmarkAccumulate(b *testing.B) {
	ix := datasetsStore(b, storeBenchRows)
	qv := retrieval.Embed(benchQuery, retrieval.DefaultDim)
	acc := make([]float64, ix.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Accumulate(qv, acc)
	}
}

var hitsSink []retrieval.Hit

// BenchmarkTopK measures the exact scan's second pass on its own: selecting
// the k best of that query's 34,549 scores. B/op is the k hits it returns.
func BenchmarkTopK(b *testing.B) {
	ix := datasetsStore(b, storeBenchRows)
	acc := make([]float64, ix.Len())
	ix.Accumulate(retrieval.Embed(benchQuery, retrieval.DefaultDim), acc)
	for _, k := range []int{5, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hitsSink = ix.SelectTopK(acc, k)
			}
		})
	}
}
