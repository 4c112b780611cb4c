package linegraph

import (
	"multirag/internal/kg"
)

// BuildDelta incrementally maintains the homologous triple line graph: given
// prev (the SG of g minus the delta) and the distinct IDs of the triples
// newly added to g, it returns an SG equivalent to Build(g) while touching
// only the (subject, predicate) keys the delta intersects.
//
// Since SG is a view over g's key postings, only the aggregate counts change:
// for each touched key, the posting's length now is its new member count, and
// that length minus the key's triples in the delta its old one. The old
// length is never read off prev's graph, so g may be prev's own graph grown
// in place (recovery replay) as well as a clone of it (the committer, whose
// prev stays fully usable by concurrent readers). One call costs O(|delta|);
// repeated ingestion costs O(n) total line-graph work rather than the O(n²)
// of rebuilding from scratch each batch.
//
// A nil prev falls back to a full Build. Triple removal is not expressible as
// a delta; callers that mutate the graph destructively rebuild from scratch.
func BuildDelta(prev *SG, g *kg.Graph, newTripleIDs []string) *SG {
	if prev == nil {
		return Build(g)
	}
	sg := &SG{graph: g, counts: prev.counts}
	type key struct{ subjH, predH int32 }
	added := map[key]int{}
	for _, id := range newTripleIDs {
		if t, ok := g.Triple(id); ok {
			subjH, predH := g.TripleKeyHandles(t.Handle())
			added[key{subjH, predH}]++
		}
	}
	for k, n := range added {
		now := len(g.KeyPosting(k.subjH, k.predH))
		sg.counts.add(now-n, -1)
		sg.counts.add(now, 1)
	}
	return sg
}
