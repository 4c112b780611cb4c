package linegraph

import (
	"multirag/internal/kg"
)

// BuildDelta incrementally maintains the homologous triple line graph: given
// prev (the SG built over g minus the delta) and the IDs of triples newly
// added to g, it returns a fresh SG equivalent to Build(g) while touching
// only the (subject, predicate) keys the delta intersects.
//
// Untouched homologous nodes are shared by pointer with prev — they are
// immutable once published — so the cost of one call is O(|delta|): the two
// key indexes are copy-on-write overlays whose clone copies only the tail of
// keys recent deltas touched (amortised by flattening, see overlay.go), and
// no sorted isolated-point list is kept to rebuild per batch (IsolatedIDs
// builds one on demand). Repeated ingestion therefore costs O(n) total line-graph work rather than
// the O(n²) of rebuilding from scratch each batch, and prev stays fully
// usable by concurrent readers.
//
// A nil prev falls back to a full Build. Triple removal is not expressible as
// a delta; callers that mutate the graph destructively rebuild from scratch.
func BuildDelta(prev *SG, g *kg.Graph, newTripleIDs []string) *SG {
	if prev == nil {
		return Build(g)
	}
	sg := &SG{
		nodes:       prev.nodes.clone(),
		isoIndex:    prev.isoIndex.clone(),
		graph:       g,
		memberTotal: prev.memberTotal,
		maxGroup:    prev.maxGroup,
	}
	affected := map[string]bool{}
	for _, id := range newTripleIDs {
		if t, ok := g.Triple(id); ok {
			affected[g.Key(t)] = true
		}
	}
	for key := range affected {
		members := g.TriplesByRawKey(key)
		sg.delNode(key)
		sg.isoIndex.del(key)
		switch {
		case len(members) == 0:
			// Key vanished (cannot happen for a pure-addition delta; kept for
			// robustness).
		case len(members) == 1:
			sg.isoIndex.put(key, members[0].Handle()+1)
		default:
			sg.putNode(key, newHomologousNode(g, key, members))
		}
	}
	return sg
}
