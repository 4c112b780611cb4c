package wal

import "strings"

// Arena holds the strings a decode keeps — the values decoded state retains,
// as opposed to the ones it only looks up — packed into shared blocks instead
// of one heap object each. A block is a strings.Builder grown once to
// arenaBlock bytes: bytes are only ever appended to it, a kept value is a
// substring of it, and a block too full for the next value is replaced by a
// fresh one, never grown in place, so no value is ever moved or overwritten.
// A value longer than arenaMaxValue is a string of its own.
//
// An arena has a single writer. A value may be read by any goroutine the
// value reaches — what a reader sees of a block was written before the value
// was handed out, and later appends land past it — but only one goroutine at
// a time may keep values through a given arena: an engine writes its arena
// only under its commit lock, and a decode that runs off it uses an arena of
// its own. What an arena wastes is its current block's unused tail, at most
// one block, and less than arenaMaxValue at the end of each full block. A
// value pins its whole block, so an arena is for values that live as long as
// the state they are decoded into. The zero value is ready to use; a nil
// *Arena keeps every value as a string of its own.
type Arena struct {
	block strings.Builder
}

// arenaBlock is the size of one block and arenaMaxValue the longest value a
// block takes: a block is retired at least seven-eighths full.
const (
	arenaBlock    = 16 << 10
	arenaMaxValue = arenaBlock / 8
)

// keep returns head followed by tail as a string that does not alias tail:
// a substring of a's current block, or a string of its own for a value
// longer than arenaMaxValue or when a is nil.
func (a *Arena) keep(head string, tail []byte) string {
	n := len(head) + len(tail)
	switch {
	case n == 0:
		return ""
	case a == nil || n > arenaMaxValue:
		if head == "" {
			return string(tail)
		}
		return head + string(tail)
	}
	if a.block.Cap()-a.block.Len() < n {
		a.block.Reset()
		a.block.Grow(arenaBlock)
	}
	lo := a.block.Len()
	a.block.WriteString(head)
	a.block.Write(tail)
	return a.block.String()[lo:]
}
