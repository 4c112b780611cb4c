package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refSearch is the reference exact scan the layered variants must reproduce
// hit for hit: materialise every kept chunk, stable full sort by (score
// desc, ID asc), truncate to k — the seed implementation of Index.Search.
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

// variants builds every layered configuration over the same corpus.
func variants(dim int, chunks []Chunk, vecs []Vector) map[string]Store {
	out := map[string]Store{
		"flat":            New(Options{Dim: dim}),
		"sharded2":        New(Options{Dim: dim, Shards: 2}),
		"sharded8":        New(Options{Dim: dim, Shards: 8}),
		"sharded8+serial": New(Options{Dim: dim, Shards: 8, Workers: 1}),
	}
	for _, st := range out {
		for i := range chunks {
			st.AddEmbedded(chunks[i], vecs[i])
		}
	}
	return out
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
// arbitrary corpora, queries and k, every layered configuration (flat or
// sharded, serial or parallel scan) returns hits identical to the reference
// full-sort scan — same IDs, bit-identical scores, same order.
func TestLayeredSearchMatchesFlatScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 64
	for round := 0; round < 60; round++ {
		n := 1 + rng.Intn(120)
		chunks, vecs := randCorpus(rng, n, dim)
		vars := variants(dim, chunks, vecs)
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
				for name, st := range vars {
					got := st.SearchVector(qv, k, keep)
					if !hitsEqual(got, want) {
						t.Fatalf("round %d %s keep=%s query=%q k=%d:\n got  %s\n want %s",
							round, name, keepName, query, k, fmtHits(got), fmtHits(want))
					}
				}
			}
			// The string entry points must agree too.
			want := refSearch(chunks, vecs, qv, k, nil)
			for name, st := range vars {
				if got := st.Search(query, k); !hitsEqual(got, want) {
					t.Fatalf("round %d %s Search(%q, %d) diverges:\n got  %s\n want %s",
						round, name, query, k, fmtHits(got), fmtHits(want))
				}
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
	for name, st := range variants(dim, chunks, vecs) {
		got := st.SearchVector(qv, 4, nil)
		want := refSearch(chunks, vecs, qv, 4, nil)
		if !hitsEqual(got, want) {
			t.Fatalf("%s fallback diverges:\n got  %s\n want %s", name, fmtHits(got), fmtHits(want))
		}
		if got[0].Chunk.ID != "d#c0" {
			t.Fatalf("%s: lexical match must rank first, got %s", name, fmtHits(got))
		}
	}
}

// TestShardedCloneForAppendIsolation is the copy-on-write contract under
// sharding: appends to a clone must never change what an already-published
// shard serves.
func TestShardedCloneForAppendIsolation(t *testing.T) {
	for _, opts := range []Options{
		{Dim: 64, Shards: 4},
		{Dim: 64},
	} {
		base := New(opts)
		rng := rand.New(rand.NewSource(3))
		chunks, vecs := randCorpus(rng, 40, 64)
		for i := range chunks {
			base.AddEmbedded(chunks[i], vecs[i])
		}
		qv := Embed("status delayed typhoon", 64)
		before := base.SearchVector(qv, 10, nil)
		lenBefore := base.Len()

		clone := base.CloneForAppend()
		extra, extraVecs := randCorpus(rng, 40, 64)
		for i := range extra {
			extra[i].ID = "x-" + extra[i].ID // keep IDs unique vs the base corpus
			clone.AddEmbedded(extra[i], extraVecs[i])
		}
		if base.Len() != lenBefore {
			t.Fatalf("shards=%d: clone append changed published Len: %d -> %d",
				opts.Shards, lenBefore, base.Len())
		}
		if got := base.SearchVector(qv, 10, nil); !hitsEqual(got, before) {
			t.Fatalf("shards=%d: clone append changed published results:\n got  %s\n want %s",
				opts.Shards, fmtHits(got), fmtHits(before))
		}
		if clone.Len() != lenBefore+len(extra) {
			t.Fatalf("clone lost appends: %d", clone.Len())
		}
	}
}

// TestTopKSelector pins the bounded selector against sort on random inputs,
// including duplicate scores.
func TestTopKSelector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		n := rng.Intn(50)
		chunks := make([]Chunk, n)
		scores := make([]float64, n)
		for i := range chunks {
			chunks[i] = Chunk{ID: fmt.Sprintf("c%03d", i)}
			scores[i] = float64(rng.Intn(5)) / 4 // few distinct values → ties
		}
		k := 1 + rng.Intn(12)
		sel := newTopK(k)
		var all []Hit
		for i := range chunks {
			sel.consider(&chunks[i], scores[i])
			all = append(all, Hit{Chunk: chunks[i], Score: scores[i]})
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].Chunk.ID < all[j].Chunk.ID
		})
		if k > len(all) {
			k = len(all)
		}
		want := all[:k]
		if got := sel.sorted(); !hitsEqual(got, want) {
			t.Fatalf("round %d: topK(%d) over %d hits:\n got  %s\n want %s",
				round, k, n, fmtHits(got), fmtHits(want))
		}
	}
}

// TestEmbedCallsCounter verifies the instrumentation the core embedding
// cache asserts against.
func TestEmbedCallsCounter(t *testing.T) {
	before := EmbedCalls()
	Embed("counter probe", 16)
	Embed("counter probe", 16)
	if got := EmbedCalls() - before; got < 2 {
		t.Fatalf("EmbedCalls advanced by %d, want >= 2", got)
	}
}

// TestAddEmbeddedBatchMatchesPerChunk pins the batched append path: for both
// the flat and the sharded store, AddEmbeddedBatch must produce an index
// identical (length and search results) to per-chunk AddEmbedded.
func TestAddEmbeddedBatchMatchesPerChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var chunks []Chunk
	var vecs []Vector
	for i := 0; i < 60; i++ {
		text := fmt.Sprintf("%s %s %d", corpusVocab[rng.Intn(len(corpusVocab))],
			corpusVocab[rng.Intn(len(corpusVocab))], i)
		c := Chunk{ID: fmt.Sprintf("d%d#c0", i), DocID: fmt.Sprintf("d%d", i),
			Source: fmt.Sprintf("src-%d", i%3), Text: text}
		chunks = append(chunks, c)
		vecs = append(vecs, Embed(text, DefaultDim))
	}
	for _, shards := range []int{1, 8} {
		single := New(Options{Shards: shards})
		batched := New(Options{Shards: shards})
		for i := range chunks {
			single.AddEmbedded(chunks[i], vecs[i])
		}
		batched.AddEmbeddedBatch(chunks, vecs)
		if single.Len() != batched.Len() {
			t.Fatalf("shards=%d: lengths diverge %d vs %d", shards, single.Len(), batched.Len())
		}
		for q := 0; q < 10; q++ {
			query := fmt.Sprintf("%s status %d", corpusVocab[q%len(corpusVocab)], q)
			a := single.Search(query, 7)
			b := batched.Search(query, 7)
			if len(a) != len(b) {
				t.Fatalf("shards=%d query %q: hit counts diverge", shards, query)
			}
			for i := range a {
				if a[i].Chunk.ID != b[i].Chunk.ID || a[i].Score != b[i].Score {
					t.Fatalf("shards=%d query %q hit %d diverges: %+v vs %+v", shards, query, i, a[i], b[i])
				}
			}
		}
	}
}
