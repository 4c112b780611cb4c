package retrieval

import (
	"fmt"
	"slices"
)

// arena is the flat vector store backing Index: every embedding lives back to
// back in one contiguous []float32 with stride = dim, so a scan walks memory
// linearly instead of chasing one pointer per chunk (the seed slice-of-slices
// layout). The width is fixed at construction; appends of any other width are
// rejected up front (see appendVec), which is what lets every reader index
// the arena by ordinal arithmetic alone.
//
// The arena itself knows nothing about snapshots. A clone of an Index copies
// this header — same backing array, same spare capacity — and the Index's
// lineage token (Index.claim) decides who may append into that spare room in
// place and who must clip first; see Index.CloneForAppend.
type arena struct {
	dim  int
	data []float32
}

// len returns the number of stored vectors.
func (a *arena) len() int { return len(a.data) / a.dim }

// at returns the i-th stored vector as a view into the arena. Callers must
// treat it as read-only: the backing memory is shared across snapshots.
func (a *arena) at(i int) Vector { return a.data[i*a.dim : (i+1)*a.dim] }

// appendVec copies v into the arena. The width is fixed at first use of the
// index, so a mismatched vector is a programmer error: it is rejected before
// any mutation rather than silently mis-striding every later read.
func (a *arena) appendVec(v Vector) {
	if len(v) != a.dim {
		panic(fmt.Sprintf("retrieval: vector dim %d does not match index dim %d", len(v), a.dim))
	}
	a.data = append(a.data, v...)
}

// grow reserves room for n more vectors, so a batch append reallocates the
// backing array at most once (the Store.AddEmbeddedBatch contract). The
// reservation takes geometric headroom: repeated batch appends along one
// lineage — every commit, every replica apply, every replayed WAL record —
// must amortise to O(total), not recopy the whole arena per batch. The spare
// room stays visible to clones on purpose: the next commit's clone appends
// into it in place.
func (a *arena) grow(n int) {
	need := len(a.data) + n*a.dim
	if need <= cap(a.data) {
		return
	}
	grown := make([]float32, len(a.data), max(need, len(a.data)+len(a.data)/2))
	copy(grown, a.data)
	a.data = grown
}

// clip drops the spare capacity, so the next append reallocates into private
// memory — the fork step of Index.claim.
func (a *arena) clip() { a.data = slices.Clip(a.data) }
