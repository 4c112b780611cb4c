package retrieval

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"multirag/internal/textutil"
	"multirag/internal/wal"
)

// oracleEmbed is Embed as it was written before EmbedInto: the content tokens
// collected by textutil.TokenizeContent, every feature hashed from the built
// token strings.
func oracleEmbed(text string, dim int) Vector {
	v := make(Vector, dim)
	add := func(h uint64) {
		sign := float32(1)
		if (h>>32)&1 == 1 {
			sign = -1
		}
		v[h%uint64(dim)] += sign
	}
	toks := textutil.TokenizeContent(text)
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

// oracleEncodeVector is EncodeVector as it was written before AppendVector:
// field by field through a wal.Encoder.
func oracleEncodeVector(v Vector) []byte {
	var e wal.Encoder
	var nz []int
	for b, x := range v {
		if x != 0 {
			nz = append(nz, b)
		}
	}
	e.Int(len(nz))
	prev := -1
	for _, b := range nz {
		e.Int(b - prev)
		prev = b
	}
	e.Int(len(nz))
	for _, b := range nz {
		e.F32(v[b])
	}
	return e.Bytes()
}

// oracleDecodeVector is DecodeVector as it was written before readVector: it
// densifies the stored form into dst as it checks it.
func oracleDecodeVector(d *wal.Decoder, dst Vector) {
	clear(dst)
	n := d.Int()
	if d.Err() == nil && n > len(dst) {
		d.Fail(fmt.Errorf("%d weights in a vector of width %d", n, len(dst)))
	}
	var buckets []int
	b := -1
	for i := 0; i < n && d.Err() == nil; i++ {
		gap := d.Uvarint()
		if d.Err() == nil && (gap == 0 || gap > uint64(len(dst)-1-b)) {
			d.Fail(fmt.Errorf("bucket gap %d after bucket %d", gap, b))
		}
		b += int(gap)
		buckets = append(buckets, b)
	}
	if m := d.Int(); d.Err() == nil && m != n {
		d.Fail(fmt.Errorf("%d weights for %d buckets", m, n))
	}
	for _, b := range buckets {
		w := d.F32()
		if d.Err() != nil {
			return
		}
		if w == 0 || math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
			d.Fail(fmt.Errorf("bucket %d holds weight %v", b, w))
			return
		}
		dst[b] = w
	}
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

// TestStoredEmbeddingMatchesEmbed holds the stored-form embedding to the
// forms it replaces bit for bit: EmbedInto over a dirty scratch to the
// token-slice Embed, AppendVector and EncodeVector to the field-by-field
// encoder, and the two composed the way ingest embeds a file — one scratch
// reused for every text, each output appended behind earlier vectors — to
// both oracles composed.
func TestStoredEmbeddingMatchesEmbed(t *testing.T) {
	texts := embedTexts(rand.New(rand.NewSource(5)))
	for _, dim := range []int{1, 7, 32, DefaultDim, 300} {
		scratch := make(Vector, dim)
		for i := range scratch {
			scratch[i] = float32(i) + 0.5
		}
		var buf []byte
		for _, text := range texts {
			want := oracleEmbed(text, dim)
			got := make(Vector, dim)
			copy(got, scratch)
			EmbedInto(got, text)
			for b := range want {
				if math.Float32bits(got[b]) != math.Float32bits(want[b]) {
					t.Fatalf("dim %d: EmbedInto(%q) bucket %d = %v, oracle %v", dim, text, b, got[b], want[b])
				}
			}
			wantBytes := oracleEncodeVector(want)
			if got := AppendVector(nil, want); !bytes.Equal(got, wantBytes) {
				t.Fatalf("dim %d: AppendVector(%q) = %x, oracle %x", dim, text, got, wantBytes)
			}
			var e wal.Encoder
			EncodeVector(&e, want)
			if !bytes.Equal(e.Bytes(), wantBytes) {
				t.Fatalf("dim %d: EncodeVector(%q) = %x, oracle %x", dim, text, e.Bytes(), wantBytes)
			}
			from := len(buf)
			EmbedInto(scratch, text)
			buf = AppendVector(buf, scratch)
			if !bytes.Equal(buf[from:], wantBytes) {
				t.Fatalf("dim %d: stored embedding of %q = %x, oracle %x", dim, text, buf[from:], wantBytes)
			}
		}
	}
}

// TestAppendStoredMatchesDenseAppend holds the stored-form append to the path
// it replaces — each stored vector densified by the oracle DecodeVector, then
// AddEmbeddedBatch — on the dense-reference corpora: the posting lists and
// chunks must come out identical, appended in one batch, in batches over
// CloneForAppend generations, and decoded from a checkpoint encoding.
func TestAppendStoredMatchesDenseAppend(t *testing.T) {
	const (
		dim = 32
		n   = 600
	)
	for _, corpus := range referenceCorpora {
		rng := rand.New(rand.NewSource(21))
		chunks, vecs := corpus.build(rng, n, dim)
		stored := make([][]byte, n)
		dense := make([]Vector, n)
		for i, v := range vecs {
			stored[i] = oracleEncodeVector(v)
			dense[i] = make(Vector, dim)
			d := wal.NewDecoder(stored[i])
			oracleDecodeVector(d, dense[i])
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		want := NewIndex(dim)
		if err := want.AddEmbeddedBatch(chunks, dense); err != nil {
			t.Fatal(err)
		}
		whole := NewIndex(dim)
		if err := whole.AppendStored(chunks, stored); err != nil {
			t.Fatal(err)
		}
		var generations Store = NewIndex(dim)
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(n/3))
			generations = generations.CloneForAppend()
			if err := generations.AppendStored(chunks[lo:hi], stored[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		decoded := NewIndex(dim)
		if err := DecodeIntoStore(wal.NewDecoder(encodeStore(want)), decoded); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Index{"one batch": whole, "over clones": generations.(*Index), "decoded": decoded} {
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

// TestStoredEmbeddingAllocCeiling: embedding a chunk into its stored form
// (EmbedInto, then AppendVector) allocates nothing once the scratch row and
// the output buffer are in hand — no dense Vector, no token slice, no
// lower-cased copy.
func TestStoredEmbeddingAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	text := strings.Repeat("The status of Flight CA981 is Delayed, according to the AirChina API. ", 8)
	scratch := make(Vector, DefaultDim)
	buf := make([]byte, 0, 4096)
	embed := func() {
		EmbedInto(scratch, text)
		buf = AppendVector(buf[:0], scratch)
	}
	if got := testing.AllocsPerRun(100, embed); got != 0 {
		t.Fatalf("embedding a chunk into its stored form allocates %.1f objects, want 0", got)
	}
}
