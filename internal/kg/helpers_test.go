package kg

import "sort"

// The readers below serve this package's tests only; the product reads a
// graph by handle and key.

// ID returns the triple's ID. It is formatted on each call.
func (t *Triple) ID() string { return TripleID(t.h) }

// EntityIDs returns all canonical entity IDs, sorted.
func (g *Graph) EntityIDs() []string {
	ids := make([]string, 0, g.ents.len())
	g.ents.forEach(func(_ int32, e *Entity) {
		ids = append(ids, e.ID)
	})
	sort.Strings(ids)
	return ids
}

// Stats summarises a graph: Table I's counts.
type Stats struct {
	Entities int
	Triples  int
	Sources  int
	Domains  int
}

// ComputeStats gathers the Table-I-style statistics of the graph.
func (g *Graph) ComputeStats() Stats {
	sources := map[string]bool{}
	domains := map[string]bool{}
	g.ForEachTriple(func(_ int32, t *Triple) {
		if t.Source != "" {
			sources[t.Source] = true
		}
		if d := g.Domain(t); d != "" {
			domains[d] = true
		}
	})
	return Stats{
		Entities: g.NumEntities(),
		Triples:  g.NumTriples(),
		Sources:  len(sources),
		Domains:  len(domains),
	}
}
