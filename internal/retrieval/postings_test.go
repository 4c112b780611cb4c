package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestPostingsProvablyExactAccept is the regime the posting lists are
// longest in: every chunk shares the query's vocabulary, so every row is on
// every list of the query and every kept hit scores strictly above zero.
func TestPostingsProvablyExactAccept(t *testing.T) {
	const dim = 64
	ix := NewIndex(dim)
	chunks := make([]Chunk, 40)
	vecs := make([]Vector, len(chunks))
	for i := range chunks {
		chunks[i] = Chunk{ID: fmt.Sprintf("p%03d#c0", i), DocID: fmt.Sprintf("p%03d", i),
			Source: "s", Text: fmt.Sprintf("status delayed flight f%03d", i)}
		vecs[i] = Embed(chunks[i].Text, dim)
		ix.AddEmbedded(chunks[i], vecs[i])
	}
	qv := Embed("status delayed", dim)
	got, want := ix.SearchVector(qv, 5, nil), refSearch(chunks, vecs, qv, 5, nil)
	if !hitsEqual(got, want) {
		t.Fatalf("diverges from reference:\n got  %s\n want %s", fmtHits(got), fmtHits(want))
	}
	if got[len(got)-1].Score <= 0 {
		t.Fatalf("every kept hit must score above zero: %s", fmtHits(got))
	}
}

// denseCorpus builds n rows of dense random vectors with weights of both
// signs — nothing like an embedding, every row on every posting list.
func denseCorpus(rng *rand.Rand, n, dim int) ([]Chunk, []Vector) {
	chunks, vecs := randCorpus(rng, n, dim)
	for i := range vecs {
		for d := range vecs[i] {
			vecs[i][d] = float32(rng.NormFloat64())
		}
	}
	return chunks, vecs
}

// zeroCorpus mixes all-zero rows, rows whose only weights are -0, rows with a
// single weight and ordinary embeddings.
func zeroCorpus(rng *rand.Rand, n, dim int) ([]Chunk, []Vector) {
	negZero := float32(math.Copysign(0, -1))
	chunks, vecs := randCorpus(rng, n, dim)
	for i := range vecs {
		switch i % 4 {
		case 0:
			clear(vecs[i])
		case 1:
			for d := range vecs[i] {
				vecs[i][d] = negZero
			}
		case 2:
			clear(vecs[i])
			vecs[i][rng.Intn(dim)] = float32(rng.NormFloat64())
		}
	}
	return chunks, vecs
}

// TestTermAtATimeMatchesDenseReference pins the store's scorer against the
// dense oracle — Cosine over every stored vector, stable full sort — with
// scores compared bit for bit: on feature-hashed text, on dense vectors with
// negative weights, on zero rows, zero queries and -0 weights, under keep
// filters that reject most rows, at k from 1 to past the corpus size, on
// every exact store layout.
func TestTermAtATimeMatchesDenseReference(t *testing.T) {
	const dim = 32
	negZero := float32(math.Copysign(0, -1))
	stores := []struct {
		name string
		opts Options
		n    int
	}{
		{"flat", Options{Dim: dim}, 600},
		{"sharded8", Options{Dim: dim, Shards: 8}, 600},
		// Below annMinCorpus the ANN tier serves the exact scan.
		{"ann-small", Options{Dim: dim, ANN: true}, annMinCorpus - 1},
	}
	corpora := []struct {
		name  string
		build func(*rand.Rand, int, int) ([]Chunk, []Vector)
	}{
		{"text", randCorpus},
		{"dense", denseCorpus},
		{"zeros", zeroCorpus},
	}
	keeps := map[string]func(string) bool{
		"nil":  nil,
		"src0": func(src string) bool { return src == "src-0" },
		"none": func(string) bool { return false },
	}
	for _, st := range stores {
		for _, corpus := range corpora {
			rng := rand.New(rand.NewSource(21))
			chunks, vecs := corpus.build(rng, st.n, dim)
			store := New(st.opts)
			store.AddEmbeddedBatch(chunks[:st.n/2], vecs[:st.n/2])
			for i := st.n / 2; i < st.n; i++ {
				store.AddEmbedded(chunks[i], vecs[i])
			}

			queries := []Vector{make(Vector, dim), Embed("status delayed typhoon", dim), Embed(randText(rng), dim)}
			signed := make(Vector, dim) // zeros of both signs around two weights
			for d := range signed {
				if d%2 == 0 {
					signed[d] = negZero
				}
			}
			signed[3], signed[dim-1] = -0.5, 2
			dense := make(Vector, dim)
			for d := range dense {
				dense[d] = float32(rng.NormFloat64())
			}
			queries = append(queries, signed, dense)

			for qi, qv := range queries {
				for _, k := range []int{1, 5, st.n, st.n + 3} {
					for keepName, keep := range keeps {
						got, want := store.SearchVector(qv, k, keep), refSearch(chunks, vecs, qv, k, keep)
						if !hitsEqual(got, want) {
							t.Fatalf("%s/%s query %d k=%d keep=%s:\n got  %s\n want %s",
								st.name, corpus.name, qi, k, keepName, fmtHits(got), fmtHits(want))
						}
					}
				}
			}
		}
	}
}

// TestSearchVectorQueryWidth: SearchVector takes caller-built vectors, and
// like Cosine it scores over the buckets both sides have — a query wider than
// the index must not index past the posting lists, a narrower one scores its
// prefix. A zero query ranks every row at score 0 by chunk ID, and k past the
// corpus size returns every row.
func TestSearchVectorQueryWidth(t *testing.T) {
	const dim = 16
	rng := rand.New(rand.NewSource(4))
	chunks, vecs := randCorpus(rng, 50, dim)
	for name, store := range variants(dim, chunks, vecs) {
		for _, width := range []int{0, dim / 2, dim, dim + 9} {
			qv := make(Vector, width)
			for d := range qv {
				qv[d] = float32(rng.NormFloat64())
			}
			got, want := store.SearchVector(qv, 7, nil), refSearch(chunks, vecs, qv, 7, nil)
			if !hitsEqual(got, want) {
				t.Fatalf("%s: query of width %d against dim %d:\n got  %s\n want %s",
					name, width, dim, fmtHits(got), fmtHits(want))
			}
		}
		zero := store.SearchVector(make(Vector, dim), 3, nil)
		if !hitsEqual(zero, refSearch(chunks, vecs, make(Vector, dim), 3, nil)) || zero[0].Score != 0 {
			t.Fatalf("%s: zero query must return the lowest chunk IDs at score 0, got %s", name, fmtHits(zero))
		}
		if all := store.SearchVector(vecs[0], len(chunks)+3, nil); len(all) != len(chunks) {
			t.Fatalf("%s: k past the corpus returned %d of %d rows", name, len(all), len(chunks))
		}
	}
}

// TestSearchVectorAllocations: a scan's accumulator is pooled and the
// selector copies only the hits it keeps, so one SearchVector allocates a
// handful of objects and the same bytes whatever the corpus size.
func TestSearchVectorAllocations(t *testing.T) {
	const dim = DefaultDim
	rng := rand.New(rand.NewSource(1))
	chunks, vecs := randCorpus(rng, 34549, dim)
	qv := Embed("status delayed typhoon airport", dim)

	// The least one call allocates over several tries: a pooled buffer may be
	// dropped by a GC cycle (or, under -race, at random) and rebuilt once.
	minBytes := func(ix *Index) uint64 {
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for try := 0; try < 20; try++ {
			runtime.ReadMemStats(&before)
			ix.SearchVector(qv, 5, nil)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := NewIndex(dim), NewIndex(dim)
	small.AddEmbeddedBatch(chunks[:2000], vecs[:2000])
	large.AddEmbeddedBatch(chunks, vecs)
	if s, l := minBytes(small), minBytes(large); l != s || l > 1024 {
		t.Fatalf("bytes per scan: %d at n=%d, %d at n=%d; want equal and under 1 KB", s, small.Len(), l, large.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { large.SearchVector(qv, 5, nil) }); allocs > 3 {
		t.Fatalf("SearchVector(k=5) on %d rows: %v allocations per run, want at most 3", large.Len(), allocs)
	}
}
