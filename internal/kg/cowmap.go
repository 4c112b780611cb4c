package kg

import "maps"

// Copy-on-write overlay maps: the interner and key-index counterpart of the
// paged columns in col.go. A map is a frozen shared base plus a private tail
// of entries written since the last clone. Lookups probe the tail first;
// writes always land in the tail. Clone copies only the tail — O(delta), not
// O(corpus) — and flattens tail into a fresh base once the tail has grown to
// a constant fraction of the base, keeping lookup cost at two probes and
// amortising the flatten over the inserts that caused it.
//
// Bases are never written after construction, so any number of clones (and
// concurrent readers of published snapshots) share them safely.

// flattenTail reports whether a tail of size t over a base of size b is due
// for flattening at clone time.
func flattenTail(t, b int) bool { return t >= 64 && 2*t >= b }

// cowStr maps interned strings (entity IDs, predicates) to dense handles.
type cowStr struct {
	base map[string]int32
	tail map[string]int32
}

func (m *cowStr) get(k string) (int32, bool) {
	if v, ok := m.tail[k]; ok {
		return v, true
	}
	v, ok := m.base[k]
	return v, ok
}

func (m *cowStr) put(k string, v int32) {
	if m.tail == nil {
		m.tail = make(map[string]int32)
	}
	m.tail[k] = v
}

func (m *cowStr) clone() cowStr {
	if flattenTail(len(m.tail), len(m.base)) {
		merged := make(map[string]int32, len(m.base)+len(m.tail))
		maps.Copy(merged, m.base)
		maps.Copy(merged, m.tail)
		return cowStr{base: merged}
	}
	return cowStr{base: m.base, tail: maps.Clone(m.tail)}
}

// cowKeyPostings maps packed (subject, predicate) handle pairs to posting
// lists of triple handles — the byKey index.
type cowKeyPostings struct {
	base map[uint64][]int32
	tail map[uint64][]int32
}

func (m *cowKeyPostings) get(k uint64) ([]int32, bool) {
	if v, ok := m.tail[k]; ok {
		return v, true
	}
	v, ok := m.base[k]
	return v, ok
}

// appendTo appends a triple handle to the posting list for key k. Lists found
// in the base are copied into the tail first; lists already in the tail were
// clipped when they were copied there, so in-place growth never writes into
// storage a clone shares. It returns the list's new length.
func (m *cowKeyPostings) appendTo(k uint64, v int32) int {
	if m.tail == nil {
		m.tail = make(map[uint64][]int32)
	}
	lst, ok := m.tail[k]
	if !ok {
		base := m.base[k]
		lst = make([]int32, len(base), len(base)+1)
		copy(lst, base)
	}
	m.tail[k] = append(lst, v)
	return len(lst) + 1
}

// put replaces the posting list for key k with a list the caller owns.
func (m *cowKeyPostings) put(k uint64, lst []int32) {
	if m.tail == nil {
		m.tail = make(map[uint64][]int32)
	}
	m.tail[k] = lst
}

// forEach visits every (key, posting) pair, tail entries shadowing base ones.
// Iteration order is unspecified.
func (m *cowKeyPostings) forEach(fn func(k uint64, lst []int32)) {
	for k, v := range m.tail {
		fn(k, v)
	}
	for k, v := range m.base {
		if _, shadowed := m.tail[k]; !shadowed {
			fn(k, v)
		}
	}
}

func (m *cowKeyPostings) clone() cowKeyPostings {
	if flattenTail(len(m.tail), len(m.base)) {
		merged := make(map[uint64][]int32, len(m.base)+len(m.tail))
		maps.Copy(merged, m.base)
		maps.Copy(merged, m.tail)
		return cowKeyPostings{base: merged}
	}
	var tail map[uint64][]int32
	if m.tail != nil {
		tail = make(map[uint64][]int32, len(m.tail))
		for k, v := range m.tail {
			tail[k] = v[:len(v):len(v)] // clip: the clone's appends must reallocate
		}
	}
	return cowKeyPostings{base: m.base, tail: tail}
}
