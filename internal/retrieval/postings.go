package retrieval

import "slices"

// postings is the inverted-postings candidate pre-filter: one posting list
// per embedding bucket, holding (in insertion order, which is ordinal order)
// every chunk whose stored vector is non-zero in that bucket. Because the
// feature-hashed embedding writes a token's weight into exactly one bucket,
// a bucket's posting list is the hashed form of "chunks containing one of
// the tokens that land in this bucket".
//
// The pruning is lossless by construction: a chunk outside the union of the
// query's non-zero buckets has a dot product of exactly zero (every term of
// the sum is zero), so any chunk that could score non-zero is a candidate.
// The scan over candidates therefore computes exact scores for every chunk
// that can outrank the zero-score remainder. When the candidate scan cannot
// prove the full top-k ranks strictly above zero (small corpora, huge k, or
// queries with no lexical overlap), search falls back to the exact flat scan
// — identical results either way, which the property tests pin.
type postings struct {
	lists [][]int32
}

// newPostings returns an empty pre-filter for dim embedding buckets.
func newPostings(dim int) *postings {
	return &postings{lists: make([][]int32, dim)}
}

// add posts chunk ordinal ord under every non-zero bucket of v. Ordinals
// must be added in increasing order (append order), keeping each list sorted.
func (p *postings) add(ord int, v Vector) {
	for d, x := range v {
		if x != 0 {
			p.lists[d] = append(p.lists[d], int32(ord))
		}
	}
}

// clone returns the postings of a cloned Index: the outer slice is copied
// (O(dim) headers) because the two indexes' lists diverge in length, but
// every list keeps its backing array and spare capacity. Whether the
// clone may append into that capacity is the Index lineage token's call
// (Index.claim), not this type's.
func (p *postings) clone() *postings {
	return &postings{lists: slices.Clone(p.lists)}
}

// clip drops every list's spare capacity, so a posting append reallocates
// that list instead of writing into a backing array another index may be
// appending to — the fork step of Index.claim. O(dim) headers now, one list
// copy per bucket touched later.
func (p *postings) clip() {
	for d, l := range p.lists {
		p.lists[d] = slices.Clip(l)
	}
}

// candidates returns the deduplicated union of the posting lists for the
// query vector's non-zero buckets — exactly the set of chunk ordinals with a
// possibly non-zero cosine against qv. n is the indexed chunk count; a
// visited bitmap keeps dedup O(union) instead of sorting it, and the result
// order is irrelevant: the top-k selector's comparator is a strict total
// order over distinct ordinals.
func (p *postings) candidates(qv Vector, n int) []int32 {
	var total int
	for d, x := range qv {
		if x != 0 {
			total += len(p.lists[d])
		}
	}
	if total == 0 {
		return nil
	}
	seen := make([]bool, n)
	out := make([]int32, 0, total)
	for d, x := range qv {
		if x == 0 {
			continue
		}
		for _, ord := range p.lists[d] {
			if !seen[ord] {
				seen[ord] = true
				out = append(out, ord)
			}
		}
	}
	return out
}
