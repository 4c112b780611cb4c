package kg

import "maps"

// Copy-on-write overlay maps: the interners' counterpart of the paged columns
// in col.go. A map is a frozen shared base plus a private tail of entries
// written since the last clone. Lookups probe the tail first; writes always
// land in the tail. Clone copies only the tail — the entries written since
// the last flatten, not O(corpus) — and flattens tail into a fresh base once
// the tail has grown to a constant fraction of the base, keeping lookup cost
// at two probes and amortising the flatten over the inserts that caused it.
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

// text is the two forms a key reaches the graph in: a caller's string, or a
// byte view a replay decodes (extract.Replay). Indexing a map with string(k)
// builds no string in either form.
type text interface{ string | []byte }

func (m *cowStr) get(k string) (int32, bool) { return lookup(m, k) }

// lookup is get over either form of the key.
func lookup[S text](m *cowStr, k S) (int32, bool) {
	if v, ok := m.tail[string(k)]; ok {
		return v, true
	}
	v, ok := m.base[string(k)]
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
