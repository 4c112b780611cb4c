package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"multirag/internal/wal"
)

// refSearch is the reference exact scan the index must reproduce hit for hit:
// materialise every kept chunk, stable full sort by (score desc, ID asc),
// truncate to k — the seed implementation of Index.Search.
func refSearch(chunks []Chunk, vecs []Vector, qv Vector, k int, keep func(string) bool) []Hit {
	if k <= 0 {
		return nil
	}
	var hits []Hit
	for i := range chunks {
		if keep != nil && !keep(chunks[i].Source) {
			continue
		}
		hits = append(hits, Hit{Chunk: chunks[i], Score: Cosine(qv, vecs[i])})
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

// corpusVocab is small on purpose: heavy token overlap between chunks and
// queries exercises dense score ties and long posting lists.
var corpusVocab = []string{
	"status", "delayed", "typhoon", "gate", "boarding", "director",
	"heat", "mann", "stock", "price", "acme", "airport", "departure",
	"ca981", "mu588", "noir", "garden", "harbor", "tokyo",
}

func randText(rng *rand.Rand) string {
	n := 1 + rng.Intn(7)
	words := make([]string, n)
	for i := range words {
		words[i] = corpusVocab[rng.Intn(len(corpusVocab))]
	}
	return strings.Join(words, " ")
}

// randCorpus builds n chunks with unique IDs, varied sources and vocab-drawn
// text, pre-embedded at the given width.
func randCorpus(rng *rand.Rand, n, dim int) ([]Chunk, []Vector) {
	chunks := make([]Chunk, n)
	vecs := make([]Vector, n)
	for i := range chunks {
		chunks[i] = Chunk{
			ID:     fmt.Sprintf("d%04d#c%d", i, rng.Intn(3)*1000+i),
			DocID:  fmt.Sprintf("d%04d", i),
			Source: fmt.Sprintf("src-%d", rng.Intn(4)),
			Text:   randText(rng),
		}
		vecs[i] = Embed(chunks[i].Text, dim)
	}
	return chunks, vecs
}

// indexOf builds an index over the corpus one chunk at a time.
func indexOf(dim int, chunks []Chunk, vecs []Vector) *Index {
	ix := NewIndex(dim)
	for i := range chunks {
		ix.addEmbedded(chunks[i], vecs[i])
	}
	return ix
}

// hitsEqual compares hits chunk for chunk and scores by bit pattern, so +0
// and -0 differ.
func hitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Chunk != b[i].Chunk || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func fmtHits(hits []Hit) string {
	var sb strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&sb, "%s:%.17g ", h.Chunk.ID, h.Score)
	}
	return sb.String()
}

// TestLayeredSearchMatchesFlatScanProperty is the acceptance property: for
// arbitrary corpora, queries and k, the index returns hits identical to the
// reference full-sort scan — same IDs, bit-identical scores, same order.
func TestLayeredSearchMatchesFlatScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 64
	for round := 0; round < 60; round++ {
		n := 1 + rng.Intn(120)
		chunks, vecs := randCorpus(rng, n, dim)
		ix := indexOf(dim, chunks, vecs)
		keeps := map[string]func(string) bool{
			"nil":   nil,
			"drop0": func(src string) bool { return src != "src-0" },
			"none":  func(string) bool { return false },
		}
		for q := 0; q < 4; q++ {
			query := randText(rng)
			qv := Embed(query, dim)
			k := 1 + rng.Intn(n+4) // deliberately may exceed corpus size
			for keepName, keep := range keeps {
				want := refSearch(chunks, vecs, qv, k, keep)
				if got := ix.SearchVector(qv, k, keep); !hitsEqual(got, want) {
					t.Fatalf("round %d keep=%s query=%q k=%d:\n got  %s\n want %s",
						round, keepName, query, k, fmtHits(got), fmtHits(want))
				}
			}
			// The string entry point must agree too.
			want := refSearch(chunks, vecs, qv, k, nil)
			if got := ix.Search(query, k); !hitsEqual(got, want) {
				t.Fatalf("round %d Search(%q, %d) diverges:\n got  %s\n want %s",
					round, query, k, fmtHits(got), fmtHits(want))
			}
		}
	}
}

// TestPostingsFallbackExact asks for more hits than the query's posting lists
// hold rows: the query shares no vocabulary with most of the corpus, so rows
// on none of its lists (exact score zero) must fill the result in ID order,
// just as the dense scan ranks them.
func TestPostingsFallbackExact(t *testing.T) {
	const dim = 32
	chunks := []Chunk{
		{ID: "a#c0", Source: "s", Text: "zebra quilt"},
		{ID: "b#c0", Source: "s", Text: "zebra quilt"},
		{ID: "c#c0", Source: "s", Text: "velvet prism"},
		{ID: "d#c0", Source: "s", Text: "status delayed"},
	}
	vecs := make([]Vector, len(chunks))
	for i := range chunks {
		vecs[i] = Embed(chunks[i].Text, dim)
	}
	qv := Embed("status delayed", dim)
	got := indexOf(dim, chunks, vecs).SearchVector(qv, 4, nil)
	want := refSearch(chunks, vecs, qv, 4, nil)
	if !hitsEqual(got, want) {
		t.Fatalf("fallback diverges:\n got  %s\n want %s", fmtHits(got), fmtHits(want))
	}
	if got[0].Chunk.ID != "d#c0" {
		t.Fatalf("lexical match must rank first, got %s", fmtHits(got))
	}
}

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
		ix.addEmbedded(chunks[i], vecs[i])
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

// tiedCorpus repeats the texts (and so the vectors) of its first quarter under
// fresh chunk IDs, so most scores tie and only the ID orders the hits.
func tiedCorpus(rng *rand.Rand, n, dim int) ([]Chunk, []Vector) {
	chunks, vecs := randCorpus(rng, n, dim)
	for i := n / 4; i < n; i++ {
		chunks[i].Text = chunks[i%(n/4)].Text
		vecs[i] = vecs[i%(n/4)]
	}
	return chunks, vecs
}

// permuted returns the corpus in a seeded random row order.
func permuted(rng *rand.Rand, chunks []Chunk, vecs []Vector) ([]Chunk, []Vector) {
	cs, vs := make([]Chunk, len(chunks)), make([]Vector, len(vecs))
	for to, from := range rng.Perm(len(chunks)) {
		cs[to], vs[to] = chunks[from], vecs[from]
	}
	return cs, vs
}

// referenceCorpora are the row sets the store is held to its dense oracles
// on: feature-hashed text, texts repeated under other IDs, dense vectors with
// negative weights, and zero rows with -0 weights. In the embedded ones every
// vector is Embed of its chunk's text, so the checkpoint form, which stores
// the texts and re-embeds them, reproduces the store.
var referenceCorpora = []struct {
	name     string
	build    func(*rand.Rand, int, int) ([]Chunk, []Vector)
	embedded bool
}{
	{"text", randCorpus, true},
	{"ties", tiedCorpus, true},
	{"dense", denseCorpus, false},
	{"zeros", zeroCorpus, false},
}

// TestTermAtATimeMatchesDenseReference pins the store's scorer against the
// dense oracle — Cosine over every stored vector, stable full sort — with
// scores compared bit for bit: on feature-hashed text, on texts repeated under
// different IDs, on dense vectors with negative weights, on zero rows, zero
// queries and -0 weights, under keep filters that reject most rows, at k from
// 1 to past the corpus size.
//
// The oracle ranks a set of rows, so the answer must not depend on the order
// they were stored in: each corpus is also loaded in a random permutation, in
// another one spread over several CloneForAppend generations, and (an
// embedded corpus) from the checkpoint encoding of the first permutation.
// That is what lets a checkpoint written in some other enumeration order (a
// parent release wrote rows shard by shard) keep its answers.
func TestTermAtATimeMatchesDenseReference(t *testing.T) {
	const (
		dim = 32
		n   = 600
	)
	negZero := float32(math.Copysign(0, -1))
	keeps := map[string]func(string) bool{
		"nil":  nil,
		"src0": func(src string) bool { return src == "src-0" },
		"none": func(string) bool { return false },
	}
	for _, corpus := range referenceCorpora {
		rng := rand.New(rand.NewSource(21))
		chunks, vecs := corpus.build(rng, n, dim)

		inOrder := NewIndex(dim)
		inOrder.AddEmbeddedBatch(chunks[:n/2], vecs[:n/2])
		for i := n / 2; i < n; i++ {
			inOrder.addEmbedded(chunks[i], vecs[i])
		}
		pc, pv := permuted(rng, chunks, vecs)
		shuffled := NewIndex(dim)
		shuffled.AddEmbeddedBatch(pc, pv)
		generations := NewIndex(dim)
		for gc, gv := permuted(rng, chunks, vecs); len(gc) > 0; {
			step := min(len(gc), 1+rng.Intn(n/3))
			generations = generations.CloneForAppend()
			generations.AddEmbeddedBatch(gc[:step], gv[:step])
			gc, gv = gc[step:], gv[step:]
		}
		stores := map[string]*Index{
			"in order": inOrder, "permuted": shuffled, "permuted over clones": generations,
		}
		if corpus.embedded {
			decoded := NewIndex(dim)
			if err := DecodeIntoStore(wal.NewDecoder(encodeStore(shuffled)), decoded, 2); err != nil {
				t.Fatal(err)
			}
			stores["decoded"] = decoded
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
			for _, k := range []int{1, 5, n, n + 3} {
				for keepName, keep := range keeps {
					want := refSearch(chunks, vecs, qv, k, keep)
					for name, store := range stores {
						if got := store.SearchVector(qv, k, keep); !hitsEqual(got, want) {
							t.Fatalf("%s, %s: query %d k=%d keep=%s:\n got  %s\n want %s",
								corpus.name, name, qi, k, keepName, fmtHits(got), fmtHits(want))
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
	ix := indexOf(dim, chunks, vecs)
	for _, width := range []int{0, dim / 2, dim, dim + 9} {
		qv := make(Vector, width)
		for d := range qv {
			qv[d] = float32(rng.NormFloat64())
		}
		got, want := ix.SearchVector(qv, 7, nil), refSearch(chunks, vecs, qv, 7, nil)
		if !hitsEqual(got, want) {
			t.Fatalf("query of width %d against dim %d:\n got  %s\n want %s",
				width, dim, fmtHits(got), fmtHits(want))
		}
	}
	zero := ix.SearchVector(make(Vector, dim), 3, nil)
	if !hitsEqual(zero, refSearch(chunks, vecs, make(Vector, dim), 3, nil)) || zero[0].Score != 0 {
		t.Fatalf("zero query must return the lowest chunk IDs at score 0, got %s", fmtHits(zero))
	}
	if all := ix.SearchVector(vecs[0], len(chunks)+3, nil); len(all) != len(chunks) {
		t.Fatalf("k past the corpus returned %d of %d rows", len(all), len(chunks))
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
