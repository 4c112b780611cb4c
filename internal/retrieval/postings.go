package retrieval

import (
	"context"
	"slices"
	"sync"
)

// posting is one non-zero stored weight: row's vector holds w in the bucket
// whose list the entry sits on.
type posting struct {
	row int32
	w   float32
}

// postings is where an Index keeps its vectors: one list per embedding bucket
// holding, in row order, every non-zero weight stored in that bucket. The
// feature-hashed embedding writes a token into exactly one bucket, so a row
// appears on about as many lists as it has distinct features — a few per cent
// of dim — and the lists together are both the exact scorer, not a filter in
// front of one (see Index.search), and the only copy of the vectors (see
// Index.ForEachEmbedded). Each list is a block column (blocks.go).
type postings struct {
	lists []blocks[posting]
}

func newPostings(dim int) postings {
	return postings{lists: make([]blocks[posting], dim)}
}

// add posts row's non-zero weights. Rows must be added in increasing order
// (append order), which keeps every list sorted by row.
func (p *postings) add(row int, v Vector) {
	for d, x := range v {
		if x != 0 {
			p.lists[d].push(posting{int32(row), x})
		}
	}
}

// addSparse posts row's weights, given as (bucket, weight) pairs in
// ascending bucket order; like add, rows must come in increasing order.
func (p *postings) addSparse(row int, nz []weight) {
	for _, x := range nz {
		p.lists[x.b].push(posting{int32(row), x.w})
	}
}

// clone returns the postings of a cloned Index: the list headers are copied
// (O(dim) headers of 16 bytes) because the two indexes' lists diverge in
// length, but every list keeps its spine and blocks, spare room included.
// Whether the clone may append into that room is the Index lineage token's
// call (Index.claim), not this type's. A list's row count is what keeps a
// snapshot from seeing rows posted after it was cloned from.
func (p *postings) clone() postings {
	return postings{lists: slices.Clone(p.lists)}
}

// fork marks every list alien, the fork step of Index.claim: a list copies
// its spine and its partly filled tail block before its next append, instead
// of writing into storage another index may be appending to. Nothing is
// copied now, and a list the index never appends to again is never copied.
func (p *postings) fork() {
	for d := range p.lists {
		p.lists[d].fork()
	}
}

// accPool recycles score accumulators across scans. Every pooled buffer is
// all zero over its whole capacity: a scan zeroes each slot as its selection
// pass reads it, and a scan that stops early drops its buffer instead of
// returning it.
var accPool sync.Pool

func getAcc(n int) *[]float64 {
	if p, _ := accPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	// Headroom, so a store growing by a few rows per commit does not
	// outgrow the pool's buffers on every commit.
	acc := make([]float64, n, n+n/8)
	return &acc
}

// accumulate adds the query's contribution to every row's score, one query
// bucket at a time in ascending bucket order and a list's postings in row
// order, block by block: acc[row] ends as the sum over the buckets d where
// both q[d] and the row's weight are non-zero, added in ascending d. Rows on
// none of the query's lists keep +0. It stops between buckets once ctx is
// done.
func (p *postings) accumulate(ctx context.Context, qv Vector, acc []float64) error {
	for d, q := range qv[:min(len(qv), len(p.lists))] {
		if q == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		qd := float64(q)
		l := &p.lists[d]
		for _, run := range l.runs(0, l.len()) {
			for _, e := range run {
				acc[e.row] += qd * float64(e.w)
			}
		}
	}
	return nil
}
