package kg

import "sort"

// Entity-centred readers only this package's tests use, to dump and compare
// graph observables: the triples by subject or by linked object entity, and an
// entity's neighbours.

// TriplesBySubject returns the triples whose subject is the given entity, in
// insertion order.
func (g *Graph) TriplesBySubject(entityID string) []*Triple {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return []*Triple{}
	}
	return g.resolve(g.bySubject.get(h))
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
