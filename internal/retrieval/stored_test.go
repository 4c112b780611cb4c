package retrieval

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"multirag/internal/textutil"
	"multirag/internal/wal"
)

// contentTokens is the content-token oracle: textutil.Tokenize with the
// stopwords dropped, or every token when all of them are stopwords. It does
// not go through textutil.EachContentToken, which Embed uses.
func contentTokens(text string) []string {
	stop := strings.Fields("a an the of and or in on at to is are was were be by for with from as that this it its")
	toks := textutil.Tokenize(text)
	var kept []string
	for _, t := range toks {
		if !slices.Contains(stop, t) {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		return toks
	}
	return kept
}

// oracleEmbed is Embed as it was written before EmbedInto: the content tokens
// collected by contentTokens, every feature hashed from the built token
// strings.
func oracleEmbed(text string, dim int) Vector {
	v := make(Vector, dim)
	add := func(h uint64) {
		sign := float32(1)
		if (h>>32)&1 == 1 {
			sign = -1
		}
		v[h%uint64(dim)] += sign
	}
	toks := contentTokens(text)
	for i, t := range toks {
		h := textutil.HashAdd(embPrefix, t)
		add(h)
		if i+1 < len(toks) {
			add(textutil.HashAdd(textutil.HashAdd(h, " "), toks[i+1]))
		}
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

// embedTexts are chunk-like texts for the embedding oracles: the benchmark
// grammar's sentences, mixed case, stopwords (a text of nothing else keeps
// them all), punctuation, runes that change case or width, invalid UTF-8,
// and no token at all.
func embedTexts(rng *rand.Rand) []string {
	texts := []string{
		"", " . ", "the of and", "The Lord of the Rings", "THE STATUS OF CA981 IS DELAYED.",
		"The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.",
		"İstanbul Kelvin ΟΔΟΣ ４２ x\xffy ıt is", "a a a a", "status status",
		strings.Repeat("The departure gate of Flight MU588 is B12, according to the airport API. ", 14),
	}
	words := append(slices.Clone(corpusVocab), "The", "of", "IS", "a", "İt", "Delayed,", "x\xff", "日本")
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(40)
		ws := make([]string, n)
		for j := range ws {
			ws[j] = words[rng.Intn(len(words))]
		}
		texts = append(texts, strings.Join(ws, []string{" ", ". ", ", "}[rng.Intn(3)]))
	}
	return texts
}

// sparseOf returns vecs as a sparse slab: each row's non-zero weights, of
// either sign, in ascending bucket order.
func sparseOf(vecs []Vector, dim int) *Sparse {
	s := &Sparse{dim: dim}
	for _, v := range vecs {
		for b, x := range v {
			if x != 0 {
				s.w = append(s.w, weight{int32(b), x})
			}
		}
		s.ends = append(s.ends, len(s.w))
	}
	return s
}

// TestStoredEmbeddingMatchesEmbed holds the embedding a store keeps to the
// forms it replaces bit for bit: EmbedInto over a dirty scratch to the
// token-slice Embed, and Sparse.Embed composed the way ingest embeds a file —
// one scratch reused for every text, each row appended behind earlier ones —
// to the oracle's non-zero weights. Decoded stores re-embed their texts, so
// this is what makes a derived vector the vector ingest posted.
func TestStoredEmbeddingMatchesEmbed(t *testing.T) {
	texts := embedTexts(rand.New(rand.NewSource(5)))
	for _, dim := range []int{1, 7, 32, DefaultDim, 300} {
		scratch := make(Vector, dim)
		for i := range scratch {
			scratch[i] = float32(i) + 0.5
		}
		var rows Sparse
		var want []Vector
		for _, text := range texts {
			w := oracleEmbed(text, dim)
			got := make(Vector, dim)
			copy(got, scratch)
			EmbedInto(got, text)
			for b := range w {
				if math.Float32bits(got[b]) != math.Float32bits(w[b]) {
					t.Fatalf("dim %d: EmbedInto(%q) bucket %d = %v, oracle %v", dim, text, b, got[b], w[b])
				}
			}
			rows.Embed(scratch, text)
			want = append(want, w)
		}
		if oracle := sparseOf(want, dim); !reflect.DeepEqual(rows, *oracle) {
			t.Fatalf("dim %d: sparse rows differ from the oracle's non-zero weights", dim)
		}
	}
}

// TestAppendSparseMatchesDenseAppend holds the sparse append to the dense
// AddEmbeddedBatch on the dense-reference corpora: the posting lists and
// chunks must come out identical, appended in one batch and in batches over
// CloneForAppend generations — and, for a corpus embedded from its texts,
// decoded from a checkpoint encoding, which re-embeds.
func TestAppendSparseMatchesDenseAppend(t *testing.T) {
	const (
		dim = 32
		n   = 600
	)
	for _, corpus := range referenceCorpora {
		rng := rand.New(rand.NewSource(21))
		chunks, vecs := corpus.build(rng, n, dim)
		want := NewIndex(dim)
		if err := want.AddEmbeddedBatch(chunks, vecs); err != nil {
			t.Fatal(err)
		}
		whole := NewIndex(dim)
		if err := whole.AppendSparse(chunks, sparseOf(vecs, dim)); err != nil {
			t.Fatal(err)
		}
		generations := NewIndex(dim)
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(n/3))
			generations = generations.CloneForAppend()
			if err := generations.AppendSparse(chunks[lo:hi], sparseOf(vecs[lo:hi], dim)); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		stores := map[string]*Index{"one batch": whole, "over clones": generations}
		if corpus.embedded {
			decoded := NewIndex(dim)
			if err := DecodeIntoStore(wal.NewDecoder(encodeStore(want)), decoded, 2); err != nil {
				t.Fatal(err)
			}
			stores["decoded"] = decoded
		}
		for name, got := range stores {
			if !slices.Equal(got.chunks, want.chunks) {
				t.Fatalf("%s, %s: chunks differ", corpus.name, name)
			}
			for b := range want.post.lists {
				if !reflect.DeepEqual(slices.Clip(got.post.lists[b]), slices.Clip(want.post.lists[b])) {
					t.Fatalf("%s, %s: posting list %d differs:\n got  %v\n want %v",
						corpus.name, name, b, got.post.lists[b], want.post.lists[b])
				}
			}
		}
	}
}

// TestStoredEmbeddingAllocCeiling: embedding a chunk into its sparse form
// (Sparse.Embed: EmbedInto, then the non-zero weights kept) allocates
// nothing once the scratch row and the slab's capacity are in hand — no
// dense Vector, no token slice, no lower-cased copy.
func TestStoredEmbeddingAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	text := strings.Repeat("The status of Flight CA981 is Delayed, according to the AirChina API. ", 8)
	scratch := make(Vector, DefaultDim)
	var rows Sparse
	embed := func() {
		rows.Reset()
		rows.Embed(scratch, text)
	}
	embed()
	if got := testing.AllocsPerRun(100, embed); got != 0 {
		t.Fatalf("embedding a chunk into its sparse form allocates %.1f objects, want 0", got)
	}
}
