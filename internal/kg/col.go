package kg

import "slices"

// Copy-on-write paged columns: the storage primitive of the interned graph
// core. A column is a dense array indexed by an int32 handle, split into
// fixed-size pages. Clone copies only the page-pointer table (O(n/pageSize))
// and marks every page shared on both sides; the first write a graph makes to
// a shared page copies that one page. An ingest commit therefore pays for the
// pages its delta touches — the tail of each column plus any rows it
// overwrites — never for the whole corpus. The triple-indexed columns pay
// less: the graph holding the lineage claim on a triple slot appends its row
// into the shared tail page in place (push).
//
// Columns are not safe for concurrent mutation (the Graph contract); clones
// may be read concurrently with each other and with a Clone call, because a
// graph writes a row below its own length only in a page it privately owns,
// writes past it only where the claim makes the row its own, and copies only
// the rows below its length; Clone touches nothing a reader loads.

const (
	pageBits = 9 // 512 rows per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// col is a COW paged column of values (pointers, handles, strings, triples).
type col[T any] struct {
	pages [][]T
	owned []bool // owned[p]: page p was allocated/copied after the last clone
	n     int
}

func (c *col[T]) len() int { return c.n }

// get returns the value at handle i. The caller guarantees 0 <= i < len.
func (c *col[T]) get(i int32) T { return c.pages[i>>pageBits][i&pageMask] }

// append adds a value at the next handle and returns that handle, copying
// the tail page first if it is shared with another clone.
func (c *col[T]) append(v T) int32 { return c.push(v, false) }

// push is append for the triple-indexed columns, whose rows are claimed
// (Graph.claimSlot). With claimed set the caller holds the lineage claim on
// the row: no graph sharing the tail page reads or writes it, so the value is
// written into that page in place instead of into a copy. Every other graph
// sharing the page copies it before its own first write (privatize).
func (c *col[T]) push(v T, claimed bool) int32 {
	p := c.n >> pageBits
	if p == len(c.pages) {
		c.pages = append(c.pages, make([]T, pageSize))
		c.owned = append(c.owned, true)
	} else if !c.owned[p] && !claimed {
		c.privatize(p)
	}
	c.pages[p][c.n&pageMask] = v
	c.n++
	return int32(c.n - 1)
}

// set overwrites the value at handle i, copying the page first if it is
// shared with another clone.
func (c *col[T]) set(i int32, v T) {
	p := int(i) >> pageBits
	if !c.owned[p] {
		c.privatize(p)
	}
	c.pages[p][i&pageMask] = v
}

// ref returns the address of the row at handle i, for a column of structs
// read in place. The caller guarantees 0 <= i < len.
func (c *col[T]) ref(i int32) *T { return &c.pages[i>>pageBits][i&pageMask] }

// privatize copies page p before this graph writes to it. It copies only the
// rows below the graph's own length: the graph holding the lineage claim may
// be writing the rows past it into the same page (push).
func (c *col[T]) privatize(p int) {
	np := make([]T, pageSize)
	copy(np, c.pages[p][:min(pageSize, c.n-p<<pageBits)])
	c.pages[p] = np
	c.owned[p] = true
}

// clone returns a column sharing every page with c. Both sides drop ownership
// of all pages, so whichever graph writes next copies the page it touches.
// Resetting c's owned flags is safe under concurrent readers: readers only
// load pages and n, never ownership metadata.
func (c *col[T]) clone() col[T] {
	pages := make([][]T, len(c.pages))
	copy(pages, c.pages)
	for i := range c.owned {
		c.owned[i] = false
	}
	return col[T]{pages: pages, owned: make([]bool, len(pages)), n: c.n}
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
