package kg

import (
	"slices"
	"sort"
)

// Entity-centred readers only this package's tests use, to dump and compare
// graph observables: the triples by subject or by linked object entity, and an
// entity's neighbours.

// SubjectPosting returns the handles of live triples whose subject is the
// entity at h, in insertion order: its keys' postings, merged into a fresh
// slice.
func (g *Graph) SubjectPosting(h int32) []int32 {
	var out []int32
	for _, e := range g.byKey.get(h) {
		out = append(out, e.lst...)
	}
	slices.Sort(out)
	return out
}

// TriplesBySubject returns the triples whose subject is the given entity, in
// insertion order.
func (g *Graph) TriplesBySubject(entityID string) []*Triple {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return []*Triple{}
	}
	return g.resolve(g.SubjectPosting(h))
}

// TriplesByObjectEntity returns the triples whose object resolves to the
// given entity.
func (g *Graph) TriplesByObjectEntity(entityID string) []*Triple {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return []*Triple{}
	}
	return g.resolve(g.byObject.get(h))
}

// Neighbors returns the canonical IDs of entities one hop from entityID
// (through triples in either direction), sorted and deduplicated.
func (g *Graph) Neighbors(entityID string) []string {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return []string{}
	}
	hs := g.neighborHandles(h)
	out := make([]string, 0, len(hs))
	for _, nh := range hs {
		out = append(out, g.ents.get(nh).ID)
	}
	sort.Strings(out)
	return out
}
