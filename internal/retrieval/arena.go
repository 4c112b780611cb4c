package retrieval

import (
	"fmt"
	"slices"
)

// blockRows is the number of vectors per arena block.
const blockRows = 256

// arena is the row-major vector store backing Index: embeddings live back to
// back, stride = dim, in fixed-size blocks of blockRows rows behind one block
// table. A block is allocated whole and never moves, so an append copies no
// earlier row whatever the corpus size, and loading n rows allocates
// ⌈n/blockRows⌉ blocks and nothing else. The width is fixed at construction;
// appends of any other width are rejected up front (see appendVec), which is
// what lets every reader address a row by ordinal arithmetic alone.
//
// The arena itself knows nothing about snapshots. A clone of an Index copies
// this header — same table, same blocks, the same free rows in the last
// block — and the Index's lineage token (Index.claim) decides who may write
// those rows in place and who must fork first. Table entries and block
// contents below n are never rewritten, so readers of older snapshots, who
// stop at their own n, never see an append.
type arena struct {
	dim    int
	n      int
	blocks [][]float32 // each blockRows*dim long; rows past n are free
}

// len returns the number of stored vectors.
func (a *arena) len() int { return a.n }

// at returns the i-th stored vector as a view into its block. Callers must
// treat it as read-only: the backing memory is shared across snapshots.
func (a *arena) at(i int) Vector {
	off := i % blockRows * a.dim
	return a.blocks[i/blockRows][off : off+a.dim : off+a.dim]
}

// appendVec copies v into the next free row, starting a block when the last
// one is full. The width is fixed at first use of the index, so a mismatched
// vector is a programmer error: it is rejected before any mutation rather
// than silently mis-striding every later read.
func (a *arena) appendVec(v Vector) {
	if len(v) != a.dim {
		panic(fmt.Sprintf("retrieval: vector dim %d does not match index dim %d", len(v), a.dim))
	}
	if a.n == len(a.blocks)*blockRows {
		a.blocks = append(a.blocks, make([]float32, blockRows*a.dim))
	}
	a.n++
	copy(a.at(a.n-1), v)
}

// fork makes the free rows private — the fork step of Index.claim: the block
// table is copied and the partly filled last block, if any, replaced by a
// copy. Full blocks stay shared.
func (a *arena) fork() {
	a.blocks = slices.Clone(a.blocks)
	if a.n < len(a.blocks)*blockRows {
		last := len(a.blocks) - 1
		a.blocks[last] = slices.Clone(a.blocks[last])
	}
}
