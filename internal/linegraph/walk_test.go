package linegraph

import (
	"slices"
	"strings"

	"multirag/internal/kg"
)

// The whole-view walks below are what the tests compare SG′ against; the
// product reaches nodes only by key.

// Node returns the homologous node for a precomputed Graph.Key value.
func (sg *SG) Node(key string) (*HomologousNode, bool) {
	subj, pred, ok := strings.Cut(key, "\x00")
	if !ok {
		return nil, false
	}
	return sg.Lookup(subj, pred)
}

// NumNodes returns the number of homologous nodes (keys with ≥2 members).
func (sg *SG) NumNodes() int {
	_, grouped := sg.graph.KeyCounts()
	return grouped
}

// ForEachNode visits every homologous node, in the graph's key order
// (kg.Graph.ForEachKeyPosting: subject handle, then first statement).
func (sg *SG) ForEachNode(fn func(key string, n *HomologousNode)) {
	sg.graph.ForEachKeyPosting(func(subjH, predH int32, posting []int32) {
		if len(posting) >= 2 {
			n := newHomologousNode(sg.graph, subjH, predH, posting)
			fn(n.Key, n)
		}
	})
}

// IsolatedIDs returns the IDs of triples whose key has a single member,
// sorted.
func (sg *SG) IsolatedIDs() []string {
	isolated, _ := sg.graph.KeyCounts()
	hs := make([]int32, 0, isolated)
	sg.graph.ForEachKeyPosting(func(_, _ int32, posting []int32) {
		if len(posting) == 1 {
			hs = append(hs, posting[0])
		}
	})
	slices.SortFunc(hs, kg.CompareTripleIDs)
	ids := make([]string, len(hs))
	for i, h := range hs {
		ids[i] = kg.TripleID(h)
	}
	return ids
}
