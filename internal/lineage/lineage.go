// Package lineage states, once, the rule by which copy-on-write clones decide
// who may append in place: the claim-or-fork rule. kg.Graph and
// retrieval.Index both carry a Token and apply it to their own storage.
//
// A store and its clones share append-only backing storage together with its
// spare capacity, and a Token. History is linear — one committer per engine,
// every snapshot cloned from the newest — so the clone a commit makes is
// normally the only store that will ever append behind its parent's length,
// and readers of older snapshots never index past their own length: the
// addresses a commit writes and the addresses any reader reads are disjoint.
// The token makes that safe rather than assumed. It counts the rows claimed
// on the shared storage, and a store holding have rows appends n more only
// after Claim(have, n):
//
//   - true — the count moved from have to have+n by compare-and-swap, so this
//     store owns rows [have, have+n) and appends them in place, in O(n).
//   - false — the count was already elsewhere: a second clone of one parent
//     after the first was rolled back or discarded, a parent appended to
//     after it was cloned, or a replica seeded as a clone of its primary's
//     published snapshot, which applies each record only after the primary's
//     commit of it claimed the rows. The store forks: it stops writing into
//     capacity it shares (how is the store's business — clipping slices,
//     copying a partly filled block) and continues on the fresh token Claim
//     left it with. A fork costs what every commit cost before the rule,
//     once; for a replica that is a copy of each list it appends to, paid over
//     its first applies.
//
// A store, like any snapshot under construction, has one writer at a time:
// the token orders successive writers, it does not make concurrent appends to
// one store safe.
package lineage

import "sync/atomic"

// Token is one lineage's claimed-row count, shared by a store and its clones
// (copying the Token copies the pointer). The zero value is not usable; a
// store that fills its storage without claiming takes New(rows) afterwards.
type Token struct{ tail *atomic.Int64 }

// New returns the token of a fresh lineage whose one store holds n rows.
func New(n int) Token {
	t := Token{tail: new(atomic.Int64)}
	t.tail.Store(int64(n))
	return t
}

// Claim reserves rows [have, have+n) for a store that holds have rows and
// reports whether it may append them in place. On false the caller must fork
// before appending; t is then already the token of its new lineage, with the
// n rows claimed.
func (t *Token) Claim(have, n int) bool {
	if t.tail.CompareAndSwap(int64(have), int64(have+n)) {
		return true
	}
	*t = New(have + n)
	return false
}
