package kg

import "slices"

// Copy-on-write paged columns: the storage primitive of the interned graph
// core. A column is a dense array indexed by an int32 handle, split into
// fixed-size pages. Clone shares the page-pointer table itself (O(1)) and
// owns nothing afterwards; the first write a graph makes to a shared page
// copies that one page, after copying the table if the graph does not own it
// yet. An ingest commit therefore pays for the pages its delta touches — the
// tail of each column plus any rows it overwrites — never for the whole
// corpus. The triple-indexed columns pay less: the graph holding the lineage
// claim on a triple slot appends its row into the shared tail page in place,
// and a fresh page's pointer into the shared table behind its length (push).
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

// Posting pages are sized to a commit's delta, not to the scalar columns: a
// commit touches a few dozen scattered entities, and privatizing a page
// copies its slice headers, 24 bytes a row.
const (
	postingPageBits = 6 // 64 rows, 1.5 KB of headers per page
	postingPageSize = 1 << postingPageBits
	postingPageMask = postingPageSize - 1
)

// postingCol is a COW paged column of posting lists ([]int32 per row), used
// for the bySubject/byObject adjacency indexes. It differs from
// col[[]int32] in two ways: rows materialise lazily (an entity with no
// triples costs nothing), and the lists themselves are shared with their
// spare capacity. Privatizing a page copies its headers only; a reader of an
// older snapshot holds its own page of headers and never indexes past its
// own len, so the graph that holds the lineage claim (Graph.AddTriple)
// appends behind that len in place. A graph that lost the claim calls fork,
// after which a page is clipped as it is privatized — every list in it to
// cap == len, so an append reallocates instead of writing into a backing
// array another lineage still appends to.
type postingCol struct {
	pages [][][]int32
	owned []bool
	// alien[p]: lists in page p may have spare capacity that belongs to
	// another lineage. Set for every page by fork, cleared by the clipping
	// privatize, inherited by clones; an owned page is never alien.
	alien []bool
	n     int
}

// get returns the posting list at handle i (nil when the row was never
// touched). The result is shared storage: callers must not mutate it.
func (pc *postingCol) get(i int32) []int32 {
	if int(i) >= pc.n {
		return nil
	}
	return pc.pages[i>>postingPageBits][i&postingPageMask]
}

// appendTo appends v to the posting list at handle i, extending the column
// as needed.
func (pc *postingCol) appendTo(i, v int32) {
	p := pc.ensure(i)
	pc.pages[p][i&postingPageMask] = append(pc.pages[p][i&postingPageMask], v)
}

// set replaces the posting list at handle i. The caller passes a list it
// owns (freshly built); used by triple removal.
func (pc *postingCol) set(i int32, lst []int32) {
	p := pc.ensure(i)
	pc.pages[p][i&postingPageMask] = lst
}

func (pc *postingCol) ensure(i int32) int {
	p := int(i) >> postingPageBits
	for p >= len(pc.pages) {
		pc.pages = append(pc.pages, make([][]int32, postingPageSize))
		pc.owned = append(pc.owned, true)
		pc.alien = append(pc.alien, false)
	}
	if !pc.owned[p] {
		pc.privatize(p)
	}
	if int(i) >= pc.n {
		pc.n = int(i) + 1
	}
	return p
}

func (pc *postingCol) privatize(p int) {
	np := make([][]int32, postingPageSize)
	if pc.alien[p] {
		for j, s := range pc.pages[p] {
			np[j] = s[:len(s):len(s)] // clip: appends must reallocate
		}
		pc.alien[p] = false
	} else {
		copy(np, pc.pages[p])
	}
	pc.pages[p] = np
	pc.owned[p] = true
}

// fork is the column's half of a lost lineage claim: no list reachable from
// here may be appended to in place any more. Nothing is copied now — every
// page is marked alien and disowned, so the next write to it goes through the
// clipping privatize, whatever it owned before.
func (pc *postingCol) fork() {
	for p := range pc.owned {
		pc.owned[p], pc.alien[p] = false, true
	}
}

func (pc *postingCol) clone() postingCol {
	pages := make([][][]int32, len(pc.pages))
	copy(pages, pc.pages)
	for i := range pc.owned {
		pc.owned[i] = false
	}
	return postingCol{pages: pages, owned: make([]bool, len(pages)), alien: slices.Clone(pc.alien), n: pc.n}
}

// keyEntry is one (subject, predicate) key of a subject's row in keyCol: the
// predicate handle and the handles of the key's live triples.
type keyEntry struct {
	pred int32
	lst  []int32
}

// keyCol is the byKey index, a COW paged column of keys indexed by subject
// handle: a subject's row is its keys, one entry per predicate it has been
// stated with, in the order they were first stated. A subject carries about
// a dozen, so finding a key is a scan of its row. Pages are 64 rows of row
// headers, privatized header for header as postingCol's are. A row's keys
// array is copied the first time this graph writes the row after owning its
// page (mine), so no array another snapshot reads is ever written. The
// posting lists inside the entries keep their spare capacity and follow the
// claim-or-fork rule as postingCol's lists do: the claimant appends behind
// every older snapshot's len in place, and after a fork each row's lists are
// clipped as the row is copied (alien).
type keyCol struct {
	pages [][][]keyEntry
	// mine[p] bit j: row j of page p has a keys array this graph allocated
	// after it owned the page. A page is owned exactly when some bit is set:
	// it is privatized only to write a row, which then becomes mine, and a
	// fresh page's rows are all nil, so all mine. mine is nil when the graph
	// owns nothing since the last clone.
	mine []uint64
	// alien[p] bit j: row j's lists may have spare capacity that belongs to
	// another lineage. Set for every row by fork, cleared as the row is
	// copied clipped, inherited by clones; nil until the first fork.
	alien []uint64
	n     int
}

// row returns subject i's keys (nil when the subject has none). The result is
// shared storage: callers must not mutate it.
func (kc *keyCol) row(i int32) []keyEntry {
	if int(i) >= kc.n {
		return nil
	}
	return kc.pages[i>>postingPageBits][i&postingPageMask]
}

// get returns the posting list of key (subj, pred), nil when there is none.
func (kc *keyCol) get(subj, pred int32) []int32 {
	if e := findKey(kc.row(subj), pred); e != nil {
		return e.lst
	}
	return nil
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

// appendTo appends triple handle h to the posting list of key (subj, pred),
// adding the key to the subject's row if it is new, and returns the list's
// new length.
func (kc *keyCol) appendTo(subj, pred, h int32) int {
	row := kc.edit(subj)
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

// remove replaces the posting list of key (subj, pred) with a fresh copy
// without h and returns the list's old length. The key stays in the row.
func (kc *keyCol) remove(subj, pred, h int32) int {
	e := findKey(*kc.edit(subj), pred)
	if e == nil {
		return 0
	}
	n := len(e.lst)
	e.lst = removeHandle(e.lst, h)
	return n
}

// edit returns subject i's row for writing, extending the column as needed:
// the page is privatized unless this graph owns it, and the row's keys array
// copied unless it is mine — clipped list by list if the row is alien.
func (kc *keyCol) edit(i int32) *[]keyEntry {
	if kc.mine == nil {
		kc.mine = make([]uint64, len(kc.pages))
	}
	p, bit := int(i)>>postingPageBits, uint64(1)<<(i&postingPageMask)
	for p >= len(kc.pages) {
		kc.pages = append(kc.pages, make([][]keyEntry, postingPageSize))
		kc.mine = append(kc.mine, ^uint64(0))
		if kc.alien != nil {
			kc.alien = append(kc.alien, 0)
		}
	}
	if int(i) >= kc.n {
		kc.n = int(i) + 1
	}
	if kc.mine[p] == 0 {
		kc.pages[p] = slices.Clone(kc.pages[p])
	}
	row := &kc.pages[p][i&postingPageMask]
	alien := kc.alien != nil && kc.alien[p]&bit != 0
	if kc.mine[p]&bit == 0 || alien {
		keys := make([]keyEntry, len(*row), max(4, len(*row)+1))
		for k, e := range *row {
			if alien {
				e.lst = e.lst[:len(e.lst):len(e.lst)] // clip: appends must reallocate
			}
			keys[k] = e
		}
		*row = keys
		kc.mine[p] |= bit
		if alien {
			kc.alien[p] &^= bit
		}
	}
	return row
}

// fork is the column's half of a lost lineage claim, as postingCol.fork:
// nothing is copied now, every row is marked alien, and its lists are
// clipped when the row is next written.
func (kc *keyCol) fork() {
	if kc.alien == nil {
		kc.alien = make([]uint64, len(kc.pages))
	}
	for p := range kc.alien {
		kc.alien[p] = ^uint64(0)
	}
}

// forEach visits every key in subject handle order, and a subject's keys in
// the order they were first stated.
func (kc *keyCol) forEach(fn func(subj, pred int32, lst []int32)) {
	for i := int32(0); int(i) < kc.n; i++ {
		for _, e := range kc.row(i) {
			fn(i, e.pred, e.lst)
		}
	}
}

func (kc *keyCol) clone() keyCol {
	if kc.mine != nil {
		kc.mine = nil
	}
	return keyCol{pages: slices.Clone(kc.pages), alien: slices.Clone(kc.alien), n: kc.n}
}
