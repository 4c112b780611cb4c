// Package retrieval provides the dense-retrieval substrate used by the
// multi-hop QA experiments and by MKLGP's multi-document filtering step:
// token-budgeted chunking, deterministic feature-hashed embeddings, and one
// exact cosine top-k store (Index, scored term-at-a-time over weighted posting
// lists) behind the Searcher and Store interfaces. The embedding is
// a stand-in for the paper's neural retriever: it preserves the property
// that lexically related text scores high, which is what the benchmark
// corpora exercise.
package retrieval

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"multirag/internal/lineage"
	"multirag/internal/textutil"
	"multirag/internal/wal"
)

// Chunk is one retrievable text unit with provenance.
type Chunk struct {
	ID     string
	DocID  string
	Source string
	Text   string
}

// ChunkText splits text into chunks of at most maxTokens tokens, breaking at
// sentence boundaries where possible. maxTokens <= 0 selects the default of
// 64.
func ChunkText(docID, source, text string, maxTokens int) []Chunk {
	if maxTokens <= 0 {
		maxTokens = 64
	}
	sentences := splitSentences(text)
	var chunks []Chunk
	var buf []string
	used := 0
	flush := func() {
		if len(buf) == 0 {
			return
		}
		chunks = append(chunks, Chunk{
			ID:     chunkID(docID, len(chunks)),
			DocID:  docID,
			Source: source,
			Text:   strings.Join(buf, ". ") + ".",
		})
		buf = nil
		used = 0
	}
	for _, s := range sentences {
		n := textutil.CountTokens(s)
		if used+n > maxTokens && used > 0 {
			flush()
		}
		buf = append(buf, s)
		used += n
	}
	flush()
	return chunks
}

func chunkID(docID string, n int) string {
	return docID + "#c" + strconv.Itoa(n)
}

func splitSentences(text string) []string {
	var out []string
	for _, part := range strings.FieldsFunc(text, func(r rune) bool { return r == '.' || r == '\n' }) {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Vector is a dense embedding.
type Vector []float32

// DefaultDim is the embedding width used across the repository.
const DefaultDim = 256

// embedCalls counts Embed invocations process-wide. The per-query evaluation
// cache in internal/core asserts against it that repeated sub-questions do
// not re-embed.
var embedCalls atomic.Uint64

// EmbedCalls returns the number of Embed invocations since process start.
// It exists for cache-efficiency assertions in tests and benchmarks.
func EmbedCalls() uint64 { return embedCalls.Load() }

// embPrefix is the hash state after the "emb|" salt every feature starts
// with; Embed continues it with textutil.HashAdd instead of building each
// feature's string.
var embPrefix = textutil.Hash64("emb|")

// Embed maps text to a deterministic L2-normalised feature-hashed vector:
// unigrams and bigrams of the content tokens are hashed into dim buckets
// with a sign hash (the classic hashing trick), giving stable lexical
// similarity under cosine. A feature's hash is textutil.Hash64("emb|"+f),
// with a bigram's f its two tokens joined by one space.
func Embed(text string, dim int) Vector {
	if dim <= 0 {
		dim = DefaultDim
	}
	v := make(Vector, dim)
	EmbedInto(v, text)
	return v
}

// EmbedInto is Embed(text, len(v)) written over v, and allocates nothing: the
// content tokens are hashed where they sit in text (textutil.EachContentToken)
// instead of being collected into a slice.
func EmbedInto(v Vector, text string) {
	embedCalls.Add(1)
	clear(v)
	dim := uint64(len(v))
	add := func(h uint64) {
		sign := float32(1)
		if (h>>32)&1 == 1 {
			sign = -1
		}
		v[h%dim] += sign
	}
	// Each token adds its bigram with the previous token, then its unigram:
	// the order Embed always added them in, which keeps the float sums bit
	// for bit.
	var prev uint64
	first := true
	textutil.EachContentToken(text, func(tok string) {
		if !first {
			add(textutil.HashAddLower(textutil.HashAdd(prev, " "), tok))
		}
		prev = textutil.HashAddLower(embPrefix, tok)
		add(prev)
		first = false
	})
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
}

// Cosine returns the cosine similarity of two equally sized vectors
// (already-normalised vectors make this the dot product).
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

// Hit is one retrieval result.
type Hit struct {
	Chunk Chunk
	Score float64
}

// Index is the exact cosine top-k index over chunks, the one Store in the
// repository. A stored vector has one in-memory form: its non-zero weights on
// the weighted posting lists, column-major, which is what a search scores
// from and what ForEachEmbedded gathers rows back out of. The embedding width
// is fixed at construction — dim-mismatched appends are rejected up front.
type Index struct {
	dim    int
	chunks []Chunk
	post   postings
	// lin counts the rows claimed on the backing storage this index shares
	// with its clones (see claim).
	lin lineage.Token
}

// NewIndex returns an empty index with the given embedding width (<=0 selects
// DefaultDim).
func NewIndex(dim int) *Index {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &Index{dim: dim, post: newPostings(dim), lin: lineage.New(0)}
}

// claim applies the claim-or-fork rule (package lineage) to rows [len, len+n)
// before the index appends them. Clones share the chunk slice and the posting
// lists, spare capacity included. A successful claim appends in place in
// both, in O(n). A fork clips the chunk slice and every posting list to
// cap == len, so their appends reallocate.
func (ix *Index) claim(n int) {
	if ix.lin.Claim(len(ix.chunks), n) {
		return
	}
	ix.chunks = slices.Clip(ix.chunks)
	ix.post.clip()
}

// Add inserts a chunk, embedding it inline.
func (ix *Index) Add(c Chunk) {
	ix.claim(1)
	ix.post.add(len(ix.chunks), Embed(c.Text, ix.dim))
	ix.chunks = append(ix.chunks, c)
}

// AddEmbedded inserts a chunk with a precomputed embedding. The vector's
// width must match the index's (one posting list per bucket, fixed at
// construction); a mismatch is an error and leaves the store untouched. The
// index keeps v's non-zero weights, not v.
func (ix *Index) AddEmbedded(c Chunk, v Vector) error {
	return ix.AddEmbeddedBatch([]Chunk{c}, []Vector{v})
}

// AddEmbeddedBatch appends a parallel run of chunks and embeddings under one
// claim. The batch is validated up front (vs parallel to cs, every vector at
// the index width), so a malformed batch is an error with the store
// untouched instead of mis-indexing or failing mid-append.
func (ix *Index) AddEmbeddedBatch(cs []Chunk, vs []Vector) error {
	if len(cs) != len(vs) {
		return fmt.Errorf("retrieval: %d chunks but %d vectors", len(cs), len(vs))
	}
	for i := range vs {
		if len(vs[i]) != ix.dim {
			return fmt.Errorf("retrieval: vector %d has width %d, the index %d (chunk %s)",
				i, len(vs[i]), ix.dim, cs[i].ID)
		}
	}
	if len(cs) == 0 {
		return nil
	}
	ix.claim(len(cs))
	for i := range cs {
		ix.post.add(len(ix.chunks)+i, vs[i])
	}
	ix.chunks = append(ix.chunks, cs...)
	return nil
}

// AppendStored appends a parallel run of chunks and vectors in stored form
// (the bytes EncodeVector writes, one vector per slice) under one claim — the
// append the group committer, replica apply and recovery share. Weights are
// posted straight from the bytes; no dense row is built. Every vector is
// checked as DecodeVector checks it, and must fill its slice exactly, before
// anything is appended, so a malformed batch is an error with the store
// untouched.
func (ix *Index) AppendStored(cs []Chunk, vecs [][]byte) error {
	if len(cs) != len(vecs) {
		return fmt.Errorf("retrieval: %d chunks but %d stored vectors", len(cs), len(vecs))
	}
	var stack [DefaultDim]weight // spills only past DefaultDim
	for i, b := range vecs {
		d := wal.NewDecoder(b)
		readVector(d, ix.dim, stack[:0])
		if err := d.Finish(); err != nil {
			return fmt.Errorf("retrieval: stored vector of chunk %s: %w", cs[i].ID, err)
		}
	}
	if len(cs) == 0 {
		return nil
	}
	ix.claim(len(cs))
	for i, b := range vecs {
		ix.post.addSparse(len(ix.chunks)+i, readVector(wal.NewDecoder(b), ix.dim, stack[:0]))
	}
	ix.chunks = append(ix.chunks, cs...)
	return nil
}

// CloneForAppend returns an index that shares the receiver's backing arrays,
// spare capacity included, and its lineage token. The clone costs O(dim)
// slice headers whatever the corpus size; the receiver (a published,
// read-only snapshot) is never mutated by writes to the clone, because every
// append goes through claim: the first clone to append continues in place
// behind the receiver's len, any other forks to private memory first.
func (ix *Index) CloneForAppend() Store { return ix.clone() }

func (ix *Index) clone() *Index {
	clone := *ix
	clone.post = ix.post.clone()
	return &clone
}

// gatherRows is how many rows ForEachEmbedded densifies per pass over the
// posting lists: 256 KB of scratch at DefaultDim.
const gatherRows = 256

// ForEachEmbedded visits every chunk with its vector, in insertion order. The
// vectors are gathered back out of the posting lists a block of gatherRows
// rows at a time: for each block, every bucket's cursor advances while its
// list's rows are below the block's end, scattering weights into a zeroed
// block-sized scratch — O(nnz + dim·rows/gatherRows) list steps for the whole
// enumeration instead of a walk of every list per row. v is a view of that
// per-call scratch, valid only during fn.
func (ix *Index) ForEachEmbedded(fn func(c Chunk, v Vector)) {
	n, dim := len(ix.chunks), ix.dim
	if n == 0 {
		return
	}
	rows := make([]float32, min(n, gatherRows)*dim)
	next := make([]int, dim) // per bucket: the first posting not yet gathered
	for lo := 0; lo < n; lo += gatherRows {
		hi := min(lo+gatherRows, n)
		for b, l := range ix.post.lists {
			i := next[b]
			for ; i < len(l) && int(l[i].row) < hi; i++ {
				rows[(int(l[i].row)-lo)*dim+b] = l[i].w
			}
			next[b] = i
		}
		for r := lo; r < hi; r++ {
			off := (r - lo) * dim
			fn(ix.chunks[r], rows[off:off+dim:off+dim])
		}
		clear(rows)
	}
}

// Len returns the number of indexed chunks.
func (ix *Index) Len() int { return len(ix.chunks) }

// Dim returns the embedding width, so callers can precompute vectors for
// AddEmbedded off-thread.
func (ix *Index) Dim() int { return ix.dim }

// Search returns the top-k chunks by cosine similarity to the query, ties
// broken by chunk ID for determinism.
func (ix *Index) Search(query string, k int) []Hit {
	return ix.SearchFiltered(query, k, nil)
}

// SearchFiltered is Search restricted to chunks whose source passes keep
// (nil keeps everything).
func (ix *Index) SearchFiltered(query string, k int, keep func(source string) bool) []Hit {
	if k <= 0 || len(ix.chunks) == 0 {
		return nil
	}
	return ix.SearchVector(Embed(query, ix.dim), k, keep)
}

// SearchVector runs the scan against a caller-supplied query vector, letting
// one embedding serve several sub-searches. Like Cosine it scores over the
// first min(len(qv), Dim) buckets.
func (ix *Index) SearchVector(qv Vector, k int, keep func(source string) bool) []Hit {
	hits, _ := ix.search(context.Background(), qv, k, keep)
	return hits
}

// search is the one exact scan: term-at-a-time accumulation over the posting
// lists of the query's non-zero buckets, then one selection pass over every
// row's score.
//
// Scores are bit-identical to Cosine(qv, row). Cosine adds dim products in
// ascending bucket order to a sum that starts at +0; a product with a zero
// factor is exactly ±0 (stored weights are finite), and adding ±0 never
// changes a sum that started at +0 — such a sum is never -0. What is left
// are the products where both factors are non-zero, which is what the lists
// hold, and accumulate adds them in the same ascending bucket order. A row on
// none of the query's lists keeps its exact score of +0, so the selection
// pass ranks the whole corpus and no case is left to fall back from.
//
// The accumulator comes from a pool, so a scan allocates O(k). ctx is checked
// between buckets and every ctxCheckRows rows of the selection pass.
func (ix *Index) search(ctx context.Context, qv Vector, k int, keep func(string) bool) ([]Hit, error) {
	n := len(ix.chunks)
	if k <= 0 || n == 0 {
		return nil, ctx.Err()
	}
	accp := getAcc(n)
	acc := *accp
	if err := ix.post.accumulate(ctx, qv, acc); err != nil {
		return nil, err
	}
	t := newTopK(k)
	for i := range acc {
		if i%ctxCheckRows == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		score := acc[i]
		acc[i] = 0
		if keep != nil && !keep(ix.chunks[i].Source) {
			continue
		}
		t.consider(&ix.chunks[i], score)
	}
	accPool.Put(accp)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.sorted(), nil
}
