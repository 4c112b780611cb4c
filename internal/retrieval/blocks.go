package retrieval

import (
	"iter"
	"math/bits"
)

// Block storage: how an Index keeps its chunk rows and each posting list. A
// column's rows live in blocks that are allocated at their full size and
// never move or grow, so a row once written is never copied again — not when
// the column grows, which adds a block, and not when a clone forks, which
// copies the column's block pointers and at most the one partly filled block
// at its tail.
//
// Block k holds blockRows(k) rows: a column's first blocks start at 8 rows
// and double up to blockCap, so an index holding a few rows does not pay a
// full block in every one of its dim lists, and every block past those holds
// blockCap. Every block but the last is full, so where a row sits is a
// function of its position alone (locate).
//
// The block pointers sit in a spine whose length never changes once it is
// allocated: a column whose spine is full moves to a fresh spine twice as
// long. A column header is a spine pointer, a row count and a fork flag, 16
// bytes, which is what a clone copies per posting list.
//
// Clones share spines and blocks, spare room included. The column that holds
// the lineage claim on its next rows (Index.claim) writes them into the
// shared tail block, and a fresh block's pointer into the shared spine, in
// place: both addresses lie past the row count of every other column reading
// that storage, and a reader never looks past its own count. A column that
// lost the claim is alien: before its next write it copies the spine's
// entries below its count and its partly filled tail block (own), and writes
// only its copies from then on.

const (
	firstBlockBits = 3 // a column's first block holds 8 rows
	blockBits      = 7 // blocks double up to 128 rows
	blockCap       = 1 << blockBits
	// smallRows is what the doubling blocks hold together; smallBlocks is
	// how many of them there are.
	smallBlocks = blockBits - firstBlockBits
	smallRows   = blockCap - 1<<firstBlockBits
	// firstSpine is the length of a column's first spine: room for its
	// doubling blocks.
	firstSpine = smallBlocks
)

// blockRows returns the number of rows block k holds.
func blockRows(k int) int { return 1 << (firstBlockBits + min(k, smallBlocks)) }

// locate returns the block that holds row i and the row's offset in it.
func locate(i int) (k, off int) {
	if i < smallRows {
		k = bits.Len(uint(i>>firstBlockBits+1)) - 1
		return k, i - (1<<k-1)<<firstBlockBits
	}
	i -= smallRows
	return smallBlocks + i>>blockBits, i & (blockCap - 1)
}

// spine is a column's block pointers. Its length is fixed once allocated;
// entries past a column's last block are nil, or blocks only the claimant of
// that storage reads.
type spine[T any] struct{ b [][]T }

// blocks is one append-only column of rows stored in blocks.
type blocks[T any] struct {
	sp *spine[T] // nil while the column holds no row
	n  int32
	// alien: the spine and tail block may have spare room another lineage
	// appends into. Set for every column by fork, cleared by own, inherited
	// by clones.
	alien bool
}

// len returns the number of rows.
func (l *blocks[T]) len() int { return int(l.n) }

// push appends v as the next row: into the tail block when it has room, into
// a fresh block otherwise, after owning the spine and tail block if the
// column is alien.
func (l *blocks[T]) push(v T) {
	k, off := locate(int(l.n))
	if l.alien {
		l.own(k, off)
	}
	if off == 0 {
		if l.sp == nil || k == len(l.sp.b) {
			l.grow(k)
		}
		l.sp.b[k] = make([]T, blockRows(k))
	}
	l.sp.b[k][off] = v
	l.n++
}

// grow moves the column to a spine with room for block k, the first one past
// its own: twice as long as the one it had, holding its first k entries.
func (l *blocks[T]) grow(k int) {
	sp := &spine[T]{b: make([][]T, max(firstSpine, 2*k))}
	if l.sp != nil {
		copy(sp.b, l.sp.b[:k])
	}
	l.sp = sp
}

// own copies what an alien column shares and could write next, given where
// its next row goes: the spine's first k entries, into a spine as long as the
// one it shares and with room for block k, and the tail block's first off
// rows when it is partly filled. The full blocks stay shared. It is the fork's
// whole cost for the column.
func (l *blocks[T]) own(k, off int) {
	l.alien = false
	if l.sp == nil {
		return
	}
	sp := &spine[T]{b: make([][]T, max(len(l.sp.b), k+1))}
	copy(sp.b, l.sp.b[:k])
	if off > 0 {
		tail := make([]T, blockRows(k))
		copy(tail, l.sp.b[k][:off])
		sp.b[k] = tail
	}
	l.sp = sp
}

// fork is the column's half of a lost lineage claim: nothing is copied now;
// the column is marked alien, and copies its spine and tail block before its
// next write.
func (l *blocks[T]) fork() { l.alien = true }

// runs yields rows lo to hi (0 <= lo, hi <= len) in order, as runs of
// contiguous rows — up to a block's end at a time — each with the position of
// its first row.
func (l *blocks[T]) runs(lo, hi int) iter.Seq2[int, []T] {
	return func(yield func(int, []T) bool) {
		for i := lo; i < hi; {
			k, off := locate(i)
			run := l.sp.b[k][off:]
			run = run[:min(len(run), hi-i)]
			if !yield(i, run) {
				return
			}
			i += len(run)
		}
	}
}

// eachFull calls fn with the place and first row of every full block.
func (l *blocks[T]) eachFull(fn func(k int, first *T)) {
	last, _ := locate(l.len()) // where the next row goes: every block before it is full
	for k := range last {
		fn(k, &l.sp.b[k][0])
	}
}
