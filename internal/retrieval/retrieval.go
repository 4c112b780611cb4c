// Package retrieval provides the dense-retrieval substrate used by the
// multi-hop QA experiments and by MKLGP's multi-document filtering step:
// token-budgeted chunking, deterministic feature-hashed embeddings, and one
// exact cosine top-k store (Index, scored term-at-a-time over weighted posting
// lists; the Searcher and Store interfaces are the benchmark's view of it).
// The embedding is a stand-in for the paper's neural retriever: it preserves
// the property that lexically related text scores high, which is what the
// benchmark corpora exercise.
package retrieval

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"multirag/internal/fault"
	"multirag/internal/lineage"
	"multirag/internal/textutil"
)

// Chunk is one retrievable text unit with provenance.
type Chunk struct {
	ID     string
	DocID  string
	Source string
	Text   string
}

// DocOfChunk strips the record/paragraph suffix from a jsonld chunk ID,
// recovering the ingested file identity ("domain/source/name#hash"): the
// ID is cut at the first '/' after its first '#'. An ID without that shape
// is its own document.
func DocOfChunk(chunkID string) string {
	if i := strings.Index(chunkID, "#"); i >= 0 {
		if j := strings.Index(chunkID[i:], "/"); j >= 0 {
			return chunkID[:i+j]
		}
	}
	return chunkID
}

// ChunkSpans locates one chunk's fields in a ChunkArena's bytes, each as its
// [start, end) offsets.
type ChunkSpans struct{ ID, Doc, Src, Text [2]int }

// ChunkArena holds chunks as spans of one byte buffer: what stage 1 renders a
// file's chunks into, reused from one file to the next so that rendering
// builds no string per field.
type ChunkArena struct {
	Bytes []byte
	Spans []ChunkSpans
}

// Reset empties a, keeping its memory.
func (a *ChunkArena) Reset() { a.Bytes, a.Spans = a.Bytes[:0], a.Spans[:0] }

// AppendString appends s to a's bytes and returns its span.
func (a *ChunkArena) AppendString(s string) [2]int {
	lo := len(a.Bytes)
	a.Bytes = append(a.Bytes, s...)
	return [2]int{lo, len(a.Bytes)}
}

// AppendText splits text into sentences — on '.' and '\n', each trimmed of
// surrounding space, the empty ones dropped — and packs them, in order, into
// chunks of at most maxTokens tokens (maxTokens <= 0 selects 64); a sentence
// over the budget is a chunk of its own. Each chunk is appended to a: its ID,
// docID "#c" and its ordinal within text, then its sentences joined by ". "
// and ended by "."; its Doc span is the ID's docID prefix and its Src span
// src.
func (a *ChunkArena) AppendText(docID string, src [2]int, text string, maxTokens int) {
	if maxTokens <= 0 {
		maxTokens = 64
	}
	var c ChunkSpans
	n, used, open := 0, 0, false
	for text != "" {
		s := text
		if i := strings.IndexAny(text, ".\n"); i >= 0 {
			s, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		k := textutil.CountTokens(s)
		if used+k > maxTokens && used > 0 {
			a.endChunk(c)
			n, used, open = n+1, 0, false
		}
		if open {
			a.Bytes = append(a.Bytes, ". "...)
		} else {
			c = ChunkSpans{Src: src}
			c.ID[0] = len(a.Bytes)
			a.Bytes = append(a.Bytes, docID...)
			c.Doc = [2]int{c.ID[0], len(a.Bytes)}
			a.Bytes = strconv.AppendInt(append(a.Bytes, "#c"...), int64(n), 10)
			c.ID[1] = len(a.Bytes)
			c.Text[0] = len(a.Bytes)
			open = true
		}
		a.Bytes = append(a.Bytes, s...)
		used += k
	}
	if open {
		a.endChunk(c)
	}
}

// endChunk closes the chunk c whose text ends the arena.
func (a *ChunkArena) endChunk(c ChunkSpans) {
	a.Bytes = append(a.Bytes, '.')
	c.Text[1] = len(a.Bytes)
	a.Spans = append(a.Spans, c)
}

// Chunks appends every chunk of a to dst. Their fields are views of one copy
// of a's bytes, the one allocation Chunks makes beyond dst's growth, and none
// when a holds no chunk.
func (a *ChunkArena) Chunks(dst []Chunk) []Chunk {
	if len(a.Spans) == 0 {
		return dst
	}
	str := string(a.Bytes)
	view := func(s [2]int) string { return str[s[0]:s[1]] }
	for _, c := range a.Spans {
		dst = append(dst, Chunk{ID: view(c.ID), DocID: view(c.Doc), Source: view(c.Src), Text: view(c.Text)})
	}
	return dst
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
	addFeatures(v, text)
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

// addFeatures is EmbedInto before normalisation: v cleared, then each
// feature's sign added into its bucket.
func addFeatures(v Vector, text string) {
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
}

// weight is one non-zero weight of an embedding: its bucket and its value.
type weight struct {
	b int32
	w float32
}

// Sparse is a run of embeddings in sparse form, row after row, each row's
// non-zero weights in ascending bucket order: what ingest keeps of a file's
// embeddings until its commit posts them (AppendSparse), at about a tenth of
// the size of the dense rows. The zero value is empty.
type Sparse struct {
	dim  int // the width the rows were embedded at
	w    []weight
	ends []int // where each row's weights end in w
}

// rowWeights is the room Grow reserves per row: about what a chunk's
// embedding holds.
const rowWeights = 16

// Grow reserves room for n more rows of a chunk's usual size, so a slab whose
// row count is known grows in one step instead of by doubling.
func (s *Sparse) Grow(n int) {
	s.w = slices.Grow(s.w, rowWeights*n)
	s.ends = slices.Grow(s.ends, n)
}

// Reset empties s, keeping its memory for the next rows.
func (s *Sparse) Reset() { s.w, s.ends = s.w[:0], s.ends[:0] }

// Embed appends Embed(text, len(scratch)) as the next row, with scratch as
// the dense row it adds the features into (its contents are overwritten).
// Only the non-zero buckets are normalised and kept, which is EmbedInto bit
// for bit: a zero bucket adds +0 to the norm's ascending sum and never changes
// it, and a bucket's count is a whole number, which scaling never takes to
// zero. With capacity in hand it allocates nothing.
func (s *Sparse) Embed(scratch Vector, text string) {
	addFeatures(scratch, text)
	s.dim = len(scratch)
	from := len(s.w)
	norm := float32(0)
	for b, x := range scratch {
		if x != 0 {
			s.w = append(s.w, weight{int32(b), x})
			norm += x * x
		}
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(float64(norm)))
		for i := from; i < len(s.w); i++ {
			s.w[i].w *= inv
		}
	}
	s.ends = append(s.ends, len(s.w))
}

// Clone returns a copy of s's rows in memory of exactly their size: what a
// slab embedded into a reused scratch keeps once the scratch moves on.
func (s *Sparse) Clone() Sparse {
	return Sparse{dim: s.dim, w: slices.Clone(s.w), ends: slices.Clone(s.ends)}
}

// Len returns the number of rows.
func (s *Sparse) Len() int { return len(s.ends) }

// each calls fn with every row's index and weights, in order.
func (s *Sparse) each(fn func(i int, nz []weight)) {
	start := 0
	for i, end := range s.ends {
		fn(i, s.w[start:end])
		start = end
	}
}

// Hit is one retrieval result.
type Hit struct {
	Chunk Chunk
	Score float64
}

// Index is the exact cosine top-k index over chunks, the one store in the
// repository. A stored vector has one in-memory form: its non-zero weights on
// the weighted posting lists, column-major, which is what a search scores
// from and what ForEachEmbedded gathers rows back out of. The chunk rows and
// every posting list are block columns (blocks.go), so no row is copied once
// written. The embedding width is fixed at construction — dim-mismatched
// appends are rejected up front.
type Index struct {
	dim    int
	chunks blocks[Chunk]
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
// before the index appends them. Clones share the chunk column's and the
// posting lists' spines and blocks, spare room included. A successful claim
// appends in place in all of them, in O(n). A fork marks every column alien,
// so that each copies its spine and its partly filled tail block before its
// next append — at most one block per column the index appends to, however
// long the column.
func (ix *Index) claim(n int) {
	if ix.lin.Claim(ix.chunks.len(), n) {
		return
	}
	ix.chunks.fork()
	ix.post.fork()
}

// Add inserts a chunk, embedding it inline.
func (ix *Index) Add(c Chunk) {
	ix.claim(1)
	ix.post.add(ix.chunks.len(), Embed(c.Text, ix.dim))
	ix.chunks.push(c)
}

// AddEmbeddedBatch appends a parallel run of chunks and embeddings under one
// claim. The batch is validated up front (vs parallel to cs, every vector at
// the index width: one posting list per bucket, fixed at construction), so a
// malformed batch is an error with the store untouched instead of
// mis-indexing or failing mid-append. The index keeps the vectors' non-zero
// weights, not vs.
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
		ix.post.add(ix.chunks.len(), vs[i])
		ix.chunks.push(cs[i])
	}
	return nil
}

// AppendSparse appends a parallel run of chunks and their embeddings in
// sparse form under one claim — the append the group committer, replica apply
// and recovery share. The weights are posted as the slab holds them; no dense
// row is built. rows must hold one row per chunk, embedded at the index
// width, or the append is an error with the store untouched. The store does
// not retain rows.
func (ix *Index) AppendSparse(cs []Chunk, rows *Sparse) error {
	if len(cs) != rows.Len() {
		return fmt.Errorf("retrieval: %d chunks but %d sparse rows", len(cs), rows.Len())
	}
	if len(cs) == 0 {
		return nil
	}
	if rows.dim != ix.dim {
		return fmt.Errorf("retrieval: sparse rows of width %d, the index %d", rows.dim, ix.dim)
	}
	ix.claim(len(cs))
	rows.each(func(i int, nz []weight) {
		ix.post.addSparse(ix.chunks.len(), nz)
		ix.chunks.push(cs[i])
	})
	return nil
}

// CloneForAppend returns an index that shares the receiver's spines and
// blocks, spare room included, and its lineage token. The clone costs O(dim)
// list headers whatever the corpus size; the receiver (a published, read-only
// snapshot) is never mutated by writes to the clone, because every append
// goes through claim: the first clone to append continues in place behind
// the receiver's len, any other forks to private memory first.
func (ix *Index) CloneForAppend() *Index {
	clone := *ix
	clone.post = ix.post.clone()
	return &clone
}

// gatherRows is how many rows ForEachEmbedded densifies per pass over the
// posting lists: 256 KB of scratch at DefaultDim.
const gatherRows = 256

// ForEachEmbedded visits every chunk with its vector, in insertion order. The
// vectors are gathered back out of the posting lists gatherRows rows at a
// time: for each such stretch, every bucket's cursor advances while its
// list's rows are below the stretch's end, scattering weights into a zeroed
// stretch-sized scratch — O(nnz + dim·rows/gatherRows) list steps for the
// whole enumeration instead of a walk of every list per row. v is a view of
// that per-call scratch, valid only during fn.
func (ix *Index) ForEachEmbedded(fn func(c Chunk, v Vector)) {
	n, dim := ix.chunks.len(), ix.dim
	if n == 0 {
		return
	}
	rows := make([]float32, min(n, gatherRows)*dim)
	next := make([]int, dim) // per bucket: the first posting not yet gathered
	for lo := 0; lo < n; lo += gatherRows {
		hi := min(lo+gatherRows, n)
		for b := range ix.post.lists {
			l := &ix.post.lists[b]
			for i, run := range l.runs(next[b], l.len()) {
				j := 0
				for ; j < len(run) && int(run[j].row) < hi; j++ {
					rows[(int(run[j].row)-lo)*dim+b] = run[j].w
				}
				next[b] = i + j
				if j < len(run) {
					break
				}
			}
		}
		for r, run := range ix.chunks.runs(lo, hi) {
			for i := range run {
				off := (r + i - lo) * dim
				fn(run[i], rows[off:off+dim:off+dim])
			}
		}
		clear(rows)
	}
}

// ForEachFullBlock calls fn with every full block of ix's storage: list is
// the block's posting list (its bucket), or -1 for the chunk rows, k its place
// in that column, and first a pointer to its first row, which tells blocks
// apart by address. Blocks are never copied once full, so tests use it to see
// what a clone shares with the index it was cloned from.
func (ix *Index) ForEachFullBlock(fn func(list, k int, first any)) {
	ix.chunks.eachFull(func(k int, first *Chunk) { fn(-1, k, first) })
	for d := range ix.post.lists {
		ix.post.lists[d].eachFull(func(k int, first *posting) { fn(d, k, first) })
	}
}

// Len returns the number of indexed chunks.
func (ix *Index) Len() int { return ix.chunks.len() }

// Dim returns the embedding width, so callers can precompute vectors for
// AddEmbeddedBatch off-thread.
func (ix *Index) Dim() int { return ix.dim }

// Search returns the top-k chunks by cosine similarity to the query, ties
// broken by chunk ID for determinism.
func (ix *Index) Search(query string, k int) []Hit {
	if k <= 0 || ix.chunks.len() == 0 {
		return nil
	}
	return ix.SearchVector(Embed(query, ix.dim), k, nil)
}

// SearchVector runs the scan against a caller-supplied query vector, letting
// one embedding serve several sub-searches. Like the tests' dense Cosine it
// scores over the first min(len(qv), Dim) buckets.
func (ix *Index) SearchVector(qv Vector, k int, keep func(source string) bool) []Hit {
	hits, _ := ix.search(context.Background(), qv, k, keep)
	return hits
}

// SearchVectorCtx is SearchVector with cooperative cancellation: the scan
// stops between query buckets or rows once ctx is done and returns the
// context error with no hits. It runs the very loop SearchVector runs, so
// results are bit-identical. It is also the retrieval layer's
// fault-injection point (fault.PointRetrievalScan).
func (ix *Index) SearchVectorCtx(ctx context.Context, qv Vector, k int, keep func(source string) bool) ([]Hit, error) {
	if err := fault.Inject(ctx, fault.PointRetrievalScan); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ix.search(ctx, qv, k, keep)
}

// ctxCheckRows is how many rows a selection pass covers between context
// checks. A row costs a few nanoseconds there, so the cancellation
// granularity is tens of microseconds — far inside the ≤50ms slot-release
// budget — while the check itself (one atomic load via ctx.Err every 4096
// rows) is noise.
const ctxCheckRows = 4096

// search is the one exact scan: term-at-a-time accumulation over the posting
// lists of the query's non-zero buckets, then one selection pass over every
// row's score.
//
// Scores are bit-identical to the dense dot product of qv and the row (the
// tests' Cosine), which adds dim products in ascending bucket order to a sum
// that starts at +0; a product with a zero factor is exactly ±0 (stored
// weights are finite), and adding ±0 never changes a sum that started at +0
// — such a sum is never -0. What is left are the products where both
// factors are non-zero, which is what the lists hold, and accumulate adds
// them in the same ascending bucket order. A row on none of the query's
// lists keeps its exact score of +0, so the selection pass ranks the whole
// corpus and no case is left to fall back from.
//
// The accumulator comes from a pool, so a scan allocates O(k). ctx is checked
// between buckets and every ctxCheckRows rows of the selection pass.
func (ix *Index) search(ctx context.Context, qv Vector, k int, keep func(string) bool) ([]Hit, error) {
	n := ix.chunks.len()
	if k <= 0 || n == 0 {
		return nil, ctx.Err()
	}
	accp := getAcc(n)
	acc := *accp
	if err := ix.post.accumulate(ctx, qv, acc); err != nil {
		return nil, err
	}
	t := newTopK(k)
	check := ctxCheckRows
	for i, run := range ix.chunks.runs(0, n) {
		if i >= check {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			check += ctxCheckRows
		}
		for j := range run {
			score := acc[i+j]
			acc[i+j] = 0
			if keep != nil && !keep(run[j].Source) {
				continue
			}
			t.consider(&run[j], score)
		}
	}
	accPool.Put(accp)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.sorted(), nil
}
