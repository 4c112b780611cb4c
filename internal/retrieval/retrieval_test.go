package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"multirag/internal/textutil"
)

// TestDocOfChunk pins the chunk-ID → document-ID recovery, including the
// degenerate shapes the jsonld layer can produce.
func TestDocOfChunk(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},           // empty ID
		{"plain", "plain"}, // no '#'
		{"domain/src/name#h3", "domain/src/name#h3"},       // '#' without '/'
		{"domain/src/name#h3/r0", "domain/src/name#h3"},    // record suffix
		{"domain/src/name#h3/r0/p2", "domain/src/name#h3"}, // paragraph suffix
		{"#/x", "#"},         // leading '#'
		{"a#b#c/d", "a#b#c"}, // cut at the first '/' after the first '#'
	}
	for _, c := range cases {
		if got := DocOfChunk(c.in); got != c.want {
			t.Errorf("DocOfChunk(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestChunkTextRespectsBudget(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "Sentence number %d has exactly seven tokens. ", i)
	}
	chunks := ChunkText("doc1", "src", sb.String(), 32)
	if len(chunks) < 5 {
		t.Fatalf("expected several chunks, got %d", len(chunks))
	}
	for _, c := range chunks {
		if n := len(strings.Fields(c.Text)); n > 40 {
			t.Fatalf("chunk exceeds budget badly: %d words", n)
		}
		if c.DocID != "doc1" || c.Source != "src" {
			t.Fatalf("provenance lost: %+v", c)
		}
	}
	// IDs must be unique.
	seen := map[string]bool{}
	for _, c := range chunks {
		if seen[c.ID] {
			t.Fatalf("duplicate chunk id %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestChunkTextSingleSentence(t *testing.T) {
	chunks := ChunkText("d", "s", "One short sentence.", 0)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %d", len(chunks))
	}
}

func TestChunkTextEmpty(t *testing.T) {
	if got := ChunkText("d", "s", "   ", 10); len(got) != 0 {
		t.Fatalf("empty text must produce no chunks, got %v", got)
	}
}

func TestEmbedNormalised(t *testing.T) {
	v := Embed("The director of Heat is Michael Mann", DefaultDim)
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Fatalf("|v| = %v, want 1", math.Sqrt(norm))
	}
}

// embedReference is Embed as it was written before features were hashed from
// a saved FNV state: one string per feature, each through textutil.Hash64.
func embedReference(text string, dim int) Vector {
	v := make(Vector, dim)
	toks := textutil.TokenizeContent(text)
	feats := append(append([]string(nil), toks...), textutil.NGrams(toks, 2)...)
	for _, f := range feats {
		h := textutil.Hash64("emb|" + f)
		sign := float32(1)
		if (h>>32)&1 == 1 {
			sign = -1
		}
		v[int(h%uint64(dim))] += sign
	}
	norm := float32(0)
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(float64(norm)))
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

// TestEmbedMatchesStringHashReference pins the in-place feature hashing bit
// for bit against the string-building reference, on generated corpus text and
// the shapes that change which features exist: no tokens, one token,
// stopwords only, repeated tokens, non-ASCII bytes.
func TestEmbedMatchesStringHashReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	texts := []string{"", "   ", "status", "the of a", "The A", "delayed delayed delayed",
		"Zürich–Genève naïve café", "The director of Heat is Michael Mann."}
	for i := 0; i < 300; i++ {
		texts = append(texts, fmt.Sprintf("The %s of %s e%04d is %s, %d.",
			randText(rng), randText(rng), rng.Intn(2000), randText(rng), rng.Intn(100)))
	}
	for _, text := range texts {
		for _, dim := range []int{7, 64, DefaultDim} {
			got, want := Embed(text, dim), embedReference(text, dim)
			for d := range want {
				if math.Float32bits(got[d]) != math.Float32bits(want[d]) {
					t.Fatalf("Embed(%q, %d) bucket %d = %v, reference %v", text, dim, d, got[d], want[d])
				}
			}
		}
	}
}

func TestEmbedDeterministic(t *testing.T) {
	a := Embed("hello world", 64)
	b := Embed("hello world", 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding must be deterministic")
		}
	}
}

func TestEmbedSimilarityOrdering(t *testing.T) {
	q := Embed("director of Heat", DefaultDim)
	rel := Embed("The director of Heat is Michael Mann", DefaultDim)
	irr := Embed("Stock prices rose sharply in early trading", DefaultDim)
	if Cosine(q, rel) <= Cosine(q, irr) {
		t.Fatalf("lexically related text must score higher: %v vs %v",
			Cosine(q, rel), Cosine(q, irr))
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		c := Cosine(Embed(a, 64), Embed(b, 64))
		return c >= -1-1e-6 && c <= 1+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex(DefaultDim)
	docs := []struct{ id, src, text string }{
		{"d1", "imdb", "The director of Heat is Michael Mann. The year of Heat is 1995."},
		{"d2", "wiki", "The director of Inception is Christopher Nolan."},
		{"d3", "forum", "The stock price of ACME reached a new high."},
		{"d4", "news", "Typhoon Haikui impacts airport departures after 14:00."},
	}
	for _, d := range docs {
		for _, c := range ChunkText(d.id, d.src, d.text, 64) {
			ix.Add(c)
		}
	}
	return ix
}

func TestIndexSearchTopK(t *testing.T) {
	ix := buildIndex(t)
	hits := ix.Search("Who is the director of Heat?", 2)
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Chunk.DocID != "d1" {
		t.Fatalf("top hit = %s, want d1", hits[0].Chunk.DocID)
	}
	if hits[0].Score < hits[1].Score {
		t.Fatal("hits must be sorted by score")
	}
}

func TestIndexSearchEdgeCases(t *testing.T) {
	ix := NewIndex(0)
	if ix.Search("q", 3) != nil {
		t.Fatal("empty index must return nil")
	}
	ix = buildIndex(t)
	if got := ix.Search("q", 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	if got := ix.Search("director", 100); len(got) != ix.Len() {
		t.Fatalf("k beyond size must return all %d, got %d", ix.Len(), len(got))
	}
}

func TestSearchFiltered(t *testing.T) {
	ix := buildIndex(t)
	hits := ix.SearchVector(Embed("director of Heat", ix.Dim()), 4, func(src string) bool { return src != "imdb" })
	if len(hits) == 0 {
		t.Fatal("filter dropped every hit")
	}
	for _, h := range hits {
		if h.Chunk.Source == "imdb" {
			t.Fatal("filtered source leaked")
		}
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	ix := NewIndex(64)
	ix.Add(Chunk{ID: "b", DocID: "b", Text: "identical text"})
	ix.Add(Chunk{ID: "a", DocID: "a", Text: "identical text"})
	hits := ix.Search("identical text", 2)
	if hits[0].Chunk.ID != "a" {
		t.Fatalf("ties must break by ID: got %s first", hits[0].Chunk.ID)
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

// addEmbedded appends one pre-embedded chunk: a batch of one.
func (ix *Index) addEmbedded(c Chunk, v Vector) error {
	return ix.AddEmbeddedBatch([]Chunk{c}, []Vector{v})
}

// TestAddEmbeddedBatchMatchesPerChunk pins the batched append path:
// AddEmbeddedBatch must produce an index identical (length and search
// results) to appending the chunks one batch of one at a time.
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
	single := indexOf(DefaultDim, chunks, vecs)
	batched := NewIndex(DefaultDim)
	batched.AddEmbeddedBatch(chunks, vecs)
	if single.Len() != batched.Len() {
		t.Fatalf("lengths diverge %d vs %d", single.Len(), batched.Len())
	}
	for q := 0; q < 10; q++ {
		query := fmt.Sprintf("%s status %d", corpusVocab[q%len(corpusVocab)], q)
		if a, b := single.Search(query, 7), batched.Search(query, 7); !hitsEqual(a, b) {
			t.Fatalf("query %q diverges:\n per chunk %s\n batched   %s", query, fmtHits(a), fmtHits(b))
		}
	}
}

// cosineSeed is a copy of the seed's scorer: per-element float64 widening,
// single accumulator, ascending order. TestCosineBitIdenticalToSeed pins
// Cosine — the reference every oracle scores with — against it, so no
// unrolled or reordered kernel can change exact-path scores.
func cosineSeed(a, b Vector) float64 {
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

// TestCosineBitIdenticalToSeed is the exact-path property: for arbitrary
// text pairs (and the embedding widths the system uses), Cosine returns the
// bit-identical float64 the seed implementation returned.
func TestCosineBitIdenticalToSeed(t *testing.T) {
	f := func(a, b string) bool {
		for _, dim := range []int{32, 64, DefaultDim} {
			va, vb := Embed(a, dim), Embed(b, dim)
			if Cosine(va, vb) != cosineSeed(va, vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddEmbeddedBatchValidation: a malformed batch — a length mismatch, a
// vector of the wrong width, a sparse slab with a row too few or too many, or
// rows embedded at another width — is an error up front with
// the store untouched, on every append path. None of them panics.
func TestAddEmbeddedBatchValidation(t *testing.T) {
	cs := []Chunk{{ID: "a#c0", Text: "x"}, {ID: "b#c0", Text: "y"}}
	good := []Vector{Embed("x", 32), Embed("y", 32)}
	st := NewIndex(32)
	if err := st.AddEmbeddedBatch(cs, good); err != nil || st.Len() != 2 { // well-formed baseline
		t.Fatalf("baseline batch: err=%v len=%d", err, st.Len())
	}
	slab := func(dims ...int) *Sparse {
		var s Sparse
		for i, dim := range dims {
			s.Embed(make(Vector, dim), cs[i%2].Text)
		}
		return &s
	}
	two := []Chunk{{ID: "c#c0", Text: "x"}, {ID: "d#c0", Text: "y"}}
	before := slices.Clone(st.post.lists)
	for name, add := range map[string]func() error{
		"length mismatch":       func() error { return st.AddEmbeddedBatch(two, good[:1]) },
		"dim mismatch":          func() error { return st.AddEmbeddedBatch(two, []Vector{make(Vector, 32), make(Vector, 16)}) },
		"sparse row missing":    func() error { return st.AppendSparse(two, slab(32)) },
		"sparse row extra":      func() error { return st.AppendSparse(two, slab(32, 32, 32)) },
		"sparse at another dim": func() error { return st.AppendSparse(two, slab(33, 33)) },
	} {
		if err := add(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if st.Len() != 2 || !reflect.DeepEqual(st.post.lists, before) {
			t.Fatalf("%s: rejected batch mutated the store: len=%d", name, st.Len())
		}
	}
	if err := st.AppendSparse(two, slab(32, 32)); err != nil || st.Len() != 4 {
		t.Fatalf("well-formed sparse batch: err=%v len=%d", err, st.Len())
	}
}
