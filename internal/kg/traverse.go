package kg

import "multirag/internal/textutil"

// TwoHopPathSupport estimates, for a triple t, the fraction of the subject's
// other neighbours that are also connected to the triple's object entity —
// the "multi-step path information" feature fed to the authority judge. For
// literal objects it returns the share of sibling triples that agree with the
// value. Both cases run on interned handles: neighbour sets are sorted
// []int32 slices intersected by a merge walk, and siblings come straight off
// the (subject, predicate) key posting with their values compared in place
// (textutil.SameNormalized is CanonicalID equality without building either
// ID), so the literal case allocates nothing: MCC calls this once per member
// of a group, and a per-sibling allocation makes a group cost O(members²).
func (g *Graph) TwoHopPathSupport(t *Triple) float64 {
	subjH := g.tSubj.get(t.h)
	if objH := g.tObj.get(t.h); objH >= 0 {
		neigh := g.neighborHandles(subjH)
		if len(neigh) <= 1 {
			return 0
		}
		objNeigh := g.neighborHandles(objH)
		// Merge-walk intersection of the two sorted handle sets, skipping the
		// object entity itself.
		hits, i, j := 0, 0, 0
		for i < len(neigh) && j < len(objNeigh) {
			switch {
			case neigh[i] < objNeigh[j]:
				i++
			case neigh[i] > objNeigh[j]:
				j++
			default:
				if neigh[i] != objH {
					hits++
				}
				i++
				j++
			}
		}
		return float64(hits) / float64(len(neigh)-1)
	}
	siblings := g.KeyPosting(subjH, g.tPred.get(t.h))
	if len(siblings) <= 1 {
		return 0
	}
	agree := 0
	for _, h := range siblings {
		if h != t.h && textutil.SameNormalized(g.trs.ref(h).Object, t.Object) {
			agree++
		}
	}
	return float64(agree) / float64(len(siblings)-1)
}
