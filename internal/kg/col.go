package kg

import (
	"slices"
	"sync/atomic"
)

// Copy-on-write columns: the storage primitive of the interned graph core.
// Two kinds share one rule, that Clone copies nothing and a later write
// copies only the unit it lands in.
//
// A col is a dense array indexed by an int32 handle — entity, predicate,
// provenance or triple — split into 512-row pages. Clone shares the
// page-pointer table itself (O(1)) and owns nothing afterwards; the first
// write a graph makes to a shared page copies that one page, after copying
// the table if the graph does not own it yet. The triple-indexed columns pay
// less: the graph holding the lineage claim on a triple slot appends its row
// into the shared tail page in place, and a fresh page's pointer into the
// shared table behind its length (push).
//
// A rowCol (below) holds the adjacency indexes, one row of posting lists per
// entity. Its pages are 16 rows under 32-page leaves, so a commit that
// writes a few dozen scattered entities copies a leaf and a page each, a few
// hundred bytes, and its root, one pointer per 512 entities, once. An ingest
// commit therefore pays for the units its delta touches — the tail of each
// column plus any rows it writes — never for the whole corpus.
//
// Columns are not safe for concurrent mutation (the Graph contract); clones
// may be read concurrently with each other and with a Clone call, because a
// graph writes a row below its own length only in a page it privately owns,
// writes a table entry below its own length only in a table it owns, writes
// past either length only where the claim makes the row its own, and copies
// only the rows and table entries below its length; Clone touches nothing a
// reader loads.

const (
	pageBits = 9 // 512 rows per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// col is a COW paged column of values (pointers, handles, strings, triples).
type col[T any] struct {
	pages [][]T
	// owned[p]: page p was allocated or copied after the last clone. owned
	// is nil when the graph owns nothing since the last clone, its page
	// table included: the table is then shared with the graph's clones, and
	// only the claimant appends to it in place.
	owned []bool
	n     int
}

func (c *col[T]) len() int { return c.n }

// get returns the value at handle i. The caller guarantees 0 <= i < len.
func (c *col[T]) get(i int32) T { return c.pages[i>>pageBits][i&pageMask] }

// append adds a value at the next handle and returns that handle, copying
// the page table and the tail page first if they are shared with another
// clone.
func (c *col[T]) append(v T) int32 { return c.push(v, false) }

// push is append for the triple-indexed columns, whose rows are claimed
// (Graph.claimSlot). With claimed set the caller holds the lineage claim on
// the row: no graph sharing the tail page reads or writes it, and none
// sharing the page table reads or writes the entries past its own length,
// so the value is written into that page, and a fresh page's pointer into
// that table, in place instead of into a copy. Every other graph sharing the
// page or the table copies it before its own first write (own, privatize).
func (c *col[T]) push(v T, claimed bool) int32 {
	if !claimed && c.owned == nil {
		c.own()
	}
	p := c.n >> pageBits
	if p == len(c.pages) {
		c.pages = append(c.pages, make([]T, pageSize))
		if c.owned != nil {
			c.owned = append(c.owned, true)
		}
	} else if !claimed && !c.owned[p] {
		c.privatize(p)
	}
	c.pages[p][c.n&pageMask] = v
	c.n++
	return int32(c.n - 1)
}

// set overwrites the value at handle i, copying the page table and the page
// first if they are shared with another clone.
func (c *col[T]) set(i int32, v T) {
	if c.owned == nil {
		c.own()
	}
	p := int(i) >> pageBits
	if !c.owned[p] {
		c.privatize(p)
	}
	c.pages[p][i&pageMask] = v
}

// ref returns the address of the row at handle i, for a column of structs
// read in place. The caller guarantees 0 <= i < len.
func (c *col[T]) ref(i int32) *T { return &c.pages[i>>pageBits][i&pageMask] }

// own copies the shared page table before a write the claim does not cover.
// The copy holds the entries below the graph's own length only: the
// claimant may be appending past it into the shared table.
func (c *col[T]) own() {
	c.pages = slices.Clone(c.pages)
	c.owned = make([]bool, len(c.pages))
}

// privatize copies page p before this graph writes to it; the graph owns its
// page table. It copies only the rows below the graph's own length: the
// graph holding the lineage claim may be writing the rows past it into the
// same page (push).
func (c *col[T]) privatize(p int) {
	np := make([]T, pageSize)
	copy(np, c.pages[p][:min(pageSize, c.n-p<<pageBits)])
	c.pages[p] = np
	c.owned[p] = true
}

// clone returns a column sharing c's page table and every page, in O(1).
// Both sides drop ownership of everything, so whichever graph writes next
// copies the table and the page it touches, unless it holds the claim and
// appends. Dropping c's ownership is safe under concurrent readers: readers
// only load pages and n, never ownership metadata.
func (c *col[T]) clone() col[T] {
	if c.owned != nil {
		c.owned = nil
	}
	return col[T]{pages: c.pages, n: c.n}
}

// forEach visits every row in handle order.
func (c *col[T]) forEach(fn func(i int32, v T)) {
	for i := 0; i < c.n; i++ {
		fn(int32(i), c.pages[i>>pageBits][i&pageMask])
	}
}

// Entity-indexed rows are sized to a commit's delta, not to the triple
// columns: a commit writes the rows of a few dozen scattered entities, so a
// row column is a two-level table — a root of leaf pointers, a leaf of 32
// page pointers, a page of 16 rows — and a first write copies the leaf and
// the page it lands in (264 B and 520 B), never a unit that grows with the
// entity count. The root is one pointer per 512 entities, copied at a
// graph's first write after a clone.
const (
	rowPageBits = 4
	rowPageSize = 1 << rowPageBits
	rowLeafBits = 5
	rowLeafSize = 1 << rowLeafBits
)

// epochs hands out the stamps of row columns' nodes and rows, in increasing
// order across the process: one per graph per stretch between clones in
// which it writes, and one per fork.
var epochs atomic.Uint64

// rowCol is a copy-on-write column of rows indexed by entity handle, used for
// the byKey and byObject adjacency indexes. A row's lists are shared with
// their spare capacity, under the claim-or-fork rule (Graph.claimSlot): the
// graph holding the lineage claim appends behind every older snapshot's len
// in place, and a graph that lost it clips a list the first time it writes
// it. Ownership is by stamp, not by flags: a graph draws a fresh epoch at
// its first write after a clone or a fork, and owns exactly the leaves and
// pages stamped with it, those it allocated since. Clone and fork therefore
// touch nothing but the column header. Each row carries the epoch of the
// last graph that wrote it, which answers the rule's two questions: a row
// stamped with the writer's own epoch holds storage the writer allocated
// (mine), and a row stamped below fork was last written before the
// lineage's last lost claim, so its lists may have spare capacity another
// lineage appends into (alien).
//
// Readers load only the root, the leaf and page pointers and the rows. A
// graph writes a leaf or a page only when it is stamped with the graph's
// epoch, and the root only after copying it, so nothing a reader of another
// snapshot loads is ever written.
type rowCol[R any] struct {
	root []*rowLeaf[R]
	// epoch stamps what the graph allocated and wrote since it was last
	// cloned or forked; 0 until its first write, and the root is the graph's
	// own exactly when it is not.
	epoch uint64
	fork  uint64 // rows stamped below it are alien
}

type rowLeaf[R any] struct {
	epoch uint64
	pages [rowLeafSize]*rowPage[R]
}

type rowPage[R any] struct {
	epoch uint64
	stamp [rowPageSize]uint64 // the epoch of the graph that last wrote each row
	rows  [rowPageSize]R
}

// get returns the row at handle i, the zero row when it was never written.
// The result is shared storage: callers must not mutate it.
func (c *rowCol[R]) get(i int32) (r R) {
	if l := int(i) >> (rowPageBits + rowLeafBits); l < len(c.root) && c.root[l] != nil {
		if p := c.root[l].pages[i>>rowPageBits&(rowLeafSize-1)]; p != nil {
			return p.rows[i&(rowPageSize-1)]
		}
	}
	return r
}

// edit returns the row at handle i for writing, in a page the graph owns,
// extending the column as needed, and stamps it with the graph's epoch. mine
// reports that the graph already wrote the row since it was last cloned or
// forked, alien that the row was last written before the lineage's last
// fork.
func (c *rowCol[R]) edit(i int32) (row *R, mine, alien bool) {
	if c.epoch == 0 {
		c.epoch = epochs.Add(1)
		c.root = slices.Clone(c.root)
	}
	li := int(i) >> (rowPageBits + rowLeafBits)
	for li >= len(c.root) {
		c.root = append(c.root, nil)
	}
	l := c.root[li]
	if l == nil || l.epoch != c.epoch {
		nl := &rowLeaf[R]{epoch: c.epoch}
		if l != nil {
			nl.pages = l.pages
		}
		c.root[li], l = nl, nl
	}
	pi := i >> rowPageBits & (rowLeafSize - 1)
	p := l.pages[pi]
	if p == nil || p.epoch != c.epoch {
		np := &rowPage[R]{epoch: c.epoch}
		if p != nil {
			np.stamp, np.rows = p.stamp, p.rows
		}
		l.pages[pi], p = np, np
	}
	j := i & (rowPageSize - 1)
	was := p.stamp[j]
	p.stamp[j] = c.epoch
	return &p.rows[j], was == c.epoch, was < c.fork
}

// clone returns a column sharing c's root and every node, in O(1). Neither
// side owns anything afterwards: each draws a fresh epoch, and copies the
// root, at its next write. Clearing c's epoch is safe under concurrent
// readers, which never load it.
func (c *rowCol[R]) clone() rowCol[R] {
	if c.epoch != 0 {
		c.epoch = 0
	}
	return rowCol[R]{root: c.root, fork: c.fork}
}

// forked is the column's half of a lost lineage claim. Nothing is copied
// now: every row is stamped below the new fork mark, so its lists are
// clipped the first time it is written again, and the graph owns no node
// any more, so the page holding that row is copied first.
func (c *rowCol[R]) forked() { c.epoch, c.fork = 0, epochs.Add(1) }

// forEach visits every row ever written, in handle order.
func (c *rowCol[R]) forEach(fn func(i int32, r R)) {
	for li, l := range c.root {
		if l == nil {
			continue
		}
		for pi, p := range &l.pages {
			if p == nil {
				continue
			}
			for j := range p.rows {
				fn(int32(li<<(rowPageBits+rowLeafBits)|pi<<rowPageBits|j), p.rows[j])
			}
		}
	}
}

// clip returns lst with no spare capacity, so an append reallocates instead
// of writing into a backing array another lineage may still append to.
func clip(lst []int32) []int32 { return lst[:len(lst):len(lst)] }

// appendPosting appends triple handle h to the posting list at row i of a
// byObject-style column.
func appendPosting(c *rowCol[[]int32], i, h int32) {
	lst, _, alien := c.edit(i)
	if alien {
		*lst = clip(*lst)
	}
	*lst = append(*lst, h)
}

// keyEntry is one (subject, predicate) key of a subject's row in byKey: the
// predicate handle and the handles of the key's live triples. A subject's
// row is its keys, one entry per predicate it has been stated with, in the
// order they were first stated; a subject carries about a dozen, so finding
// a key is a scan of its row.
type keyEntry struct {
	pred int32
	lst  []int32
}

// findKey returns the entry of predicate pred in a subject's row, nil when
// the row has none.
func findKey(row []keyEntry, pred int32) *keyEntry {
	for k := range row {
		if row[k].pred == pred {
			return &row[k]
		}
	}
	return nil
}

// editKeys returns subject subj's keys for writing. The row holds its lists
// by value, so its keys array is copied unless the graph allocated it since
// it was last cloned — one array of about a dozen 32-byte entries per
// touched subject per commit, and no array another snapshot reads is ever
// written — with its lists clipped if the row is alien.
func editKeys(c *rowCol[[]keyEntry], subj int32) *[]keyEntry {
	row, mine, alien := c.edit(subj)
	if !mine {
		keys := make([]keyEntry, len(*row), max(4, len(*row)+1))
		for k, e := range *row {
			if alien {
				e.lst = clip(e.lst)
			}
			keys[k] = e
		}
		*row = keys
	}
	return row
}

// appendKey appends triple handle h to the posting list of key (subj, pred),
// adding the key to the subject's row if it is new, and returns the list's
// new length.
func appendKey(c *rowCol[[]keyEntry], subj, pred, h int32) int {
	row := editKeys(c, subj)
	if e := findKey(*row, pred); e != nil {
		e.lst = append(e.lst, h)
		return len(e.lst)
	}
	if len(*row) == cap(*row) {
		// A subject is stated with about a dozen predicates: a row grown
		// from one entry would cost an object per doubling.
		*row = slices.Grow(*row, max(4, len(*row)))
	}
	*row = append(*row, keyEntry{pred: pred, lst: []int32{h}})
	return 1
}

// removeKey replaces the posting list of key (subj, pred) with a fresh copy
// without h and returns the list's old length. The key stays in the row.
func removeKey(c *rowCol[[]keyEntry], subj, pred, h int32) int {
	e := findKey(*editKeys(c, subj), pred)
	if e == nil {
		return 0
	}
	n := len(e.lst)
	e.lst = removeHandle(e.lst, h)
	return n
}
