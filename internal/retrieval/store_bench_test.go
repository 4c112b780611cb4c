package retrieval_test

import (
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
// the checkpoint sizes it: the gather of every row from the posting lists
// plus the sparse vector encoding. Run with -benchmem, or via
// `make bench-micro`.
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
// index: the chunk strings, the vector decode and the rebuilt posting lists.
func BenchmarkDecodeStore(b *testing.B) {
	var e wal.Encoder
	retrieval.EncodeStore(&e, datasetsStore(b, storeBenchRows))
	body := e.Bytes()
	b.ReportMetric(float64(len(body)), "body-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := retrieval.DecodeIntoStore(wal.NewDecoder(body), retrieval.NewIndex(retrieval.DefaultDim)); err != nil {
			b.Fatal(err)
		}
	}
}
