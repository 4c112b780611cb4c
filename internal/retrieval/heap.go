package retrieval

import "math"

// topK is a bounded selector for the k best hits of a scan. It keeps at most
// k hits in a binary min-heap whose root is the weakest kept hit (lowest
// score; among equal scores, highest chunk ID — the reverse of the output
// order, so the root is always the next hit to evict). A scan over N chunks
// therefore does O(N log k) comparisons and O(k) allocation, where the
// full-sort idiom it replaces materialised N hits and paid O(N log N).
//
// Determinism: for any multiset of (score, ID) pairs with distinct IDs, the
// kept set and its sorted() order are exactly the first k elements of the
// stable full sort by (score desc, ID asc) — the contract the property tests
// pin against the reference scan.
type topK struct {
	k    int
	hits []Hit
	// floor is the score below which a row cannot enter: -Inf until k hits
	// are kept, the root's score from then on.
	floor float64
}

// newTopK returns a selector for the k best hits. k must be > 0.
func newTopK(k int) *topK {
	cap := k
	if cap > 1024 {
		cap = 1024 // defensive: callers may pass k >> corpus size
	}
	return &topK{k: k, hits: make([]Hit, 0, cap), floor: math.Inf(-1)}
}

// outranks reports whether a hit with the given score and chunk ID comes
// before hit b in the output order: higher score first, ties broken by
// ascending chunk ID.
func outranks(score float64, id string, b *Hit) bool {
	if score != b.Score {
		return score > b.Score
	}
	return id < b.Chunk.ID
}

// consider offers one scanned row to the selector. A scan rejects nearly
// every row it offers, so the common case is one comparison, inlined into the
// scan loop, and nothing is copied before a row is known to enter (a Hit is
// 72 bytes).
func (t *topK) consider(c *Chunk, score float64) {
	if score < t.floor {
		return
	}
	t.insert(c, score)
}

func (t *topK) insert(c *Chunk, score float64) {
	if len(t.hits) < t.k {
		t.hits = append(t.hits, Hit{Chunk: *c, Score: score})
		t.siftUp(len(t.hits) - 1)
	} else if outranks(score, c.ID, &t.hits[0]) {
		// Full: the new hit replaces the current weakest.
		t.hits[0] = Hit{Chunk: *c, Score: score}
		t.siftDown(0, len(t.hits))
	}
	if len(t.hits) == t.k {
		t.floor = t.hits[0].Score
	}
}

// weaker reports whether hits[i] should sit closer to the heap root than
// hits[j], i.e. hits[i] is evicted before hits[j].
func (t *topK) weaker(i, j int) bool {
	return outranks(t.hits[j].Score, t.hits[j].Chunk.ID, &t.hits[i])
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.weaker(i, parent) {
			return
		}
		t.hits[i], t.hits[parent] = t.hits[parent], t.hits[i]
		i = parent
	}
}

func (t *topK) siftDown(i, n int) {
	for {
		least := i
		if l := 2*i + 1; l < n && t.weaker(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && t.weaker(r, least) {
			least = r
		}
		if least == i {
			return
		}
		t.hits[i], t.hits[least] = t.hits[least], t.hits[i]
		i = least
	}
}

// sorted consumes the heap and returns the kept hits in output order (score
// desc, ID asc). The selector must not be reused afterwards. An empty
// selector returns nil, matching the historical Search contract.
func (t *topK) sorted() []Hit {
	if len(t.hits) == 0 {
		return nil
	}
	// Heapsort: repeatedly move the weakest hit to the shrinking tail, so the
	// array ends ordered best-first.
	for end := len(t.hits) - 1; end > 0; end-- {
		t.hits[0], t.hits[end] = t.hits[end], t.hits[0]
		t.siftDown(0, end)
	}
	return t.hits
}
