// Package linegraph implements the multi-source line graph machinery of
// §II–§III-C: homologous data detection (Definition 3), homologous nodes and
// subgraphs (Definition 4) and the homologous triple line graph SG′
// (Definition 5) with its O(n log n) matching algorithm. SG′ is a view over
// the graph's (subject, predicate) key postings, which already group every
// claim about one key, and over the key counts the graph keeps as triples
// are added and removed (kg.Graph.KeyCounts); the full triple line graph G′
// of Definition 2 is never materialised, and SG′ keeps no index or count of
// its own. A view reflects its graph as it is now, removals included, so
// there is nothing to maintain: every publish wraps its graph in O(1).
// SG′ is the structure that makes multi-source consistency checks a hash
// lookup instead of a corpus scan.
package linegraph

import (
	"slices"
	"strings"

	"multirag/internal/kg"
)

// HomologousNode is the homologous centre node snode = {name, meta, num,
// C(v)} of Definition 4, plus the member triples U_snode. A node keeps only
// what it cannot derive from its members: the association-edge weights
// E_snode = {wᵢ} are the member triples' own Weight fields, and their IDs and
// sources are the triples' own too (MemberTriples), not copies. One
// homologous node aggregates every claim the corpus makes about a single
// (subject, predicate) key. Nodes are built from the graph's key posting on
// each lookup; two lookups of one key return equal nodes, not the same one.
type HomologousNode struct {
	// Key is the (subject, predicate) key shared by all member triples.
	Key string
	// SubjectID and Name decompose the key: Name is the common attribute
	// name, SubjectID the canonical subject entity.
	SubjectID string
	Name      string
	// Num is the number of homologous data instances (num in Def. 4).
	Num int

	// members holds the member triples' handles in the order of their IDs
	// (kg.CompareTripleIDs), so member resolution is an array index.
	members []int32
}

// SG is the homologous triple line graph SG′ of Definition 5: every
// homologous subgraph (one per HomologousNode) plus the isolated triples that
// have no homologous partner. SG′ is used only for consistency checks and
// homologous retrieval; all other queries run on the original graph G.
//
// SG is a view over its graph's (subject, predicate) key postings: a posting
// with two or more live triples is a homologous node, one with exactly one an
// isolated point. It stores only the graph, so lookups and ComputeStats
// always reflect the graph as it is now, after an in-place mutation too.
// Access goes through Lookup, NestedCandidates and LookupIsolated, each a
// lookup by key: nothing in the product walks every node.
type SG struct {
	graph *kg.Graph
}

// Build runs homologous subgraph matching (§III-C) over g and assembles SG′.
//
// The algorithm follows the paper: group nodes by their retrieval key; every
// group with at least two members forms a homologous subgraph (its line-graph
// form is the complete graph over the members, Fig. 4); singleton groups go
// to the isolated point set LVs. The grouping already exists inside the
// graph as its interned (subject, predicate) key postings, and the graph
// counts the groups of each size as it links and removes triples, so Build
// is O(1): each node is assembled from its posting when a lookup asks for it.
func Build(g *kg.Graph) *SG { return &SG{graph: g} }

// newHomologousNode assembles the homologous centre node for one key's
// posting (≥2 live members). It makes the same two allocations whatever the
// group's size: the node and its key. SubjectID and Name are the graph's own
// stored strings, and the members are the posting itself, which lists
// handles in insertion order — ID order below handle 999,999; a posting that
// crosses it is copied and sorted. The graph never rewrites a posting's
// elements (it appends past their length or installs a new list), so the
// node's view of them stays fixed.
func newHomologousNode(g *kg.Graph, subjH, predH int32, posting []int32) *HomologousNode {
	subj, name := g.EntityAt(subjH).ID, g.PredicateAt(predH)
	members := posting[:len(posting):len(posting)]
	if !slices.IsSortedFunc(members, kg.CompareTripleIDs) {
		members = slices.Clone(members)
		slices.SortFunc(members, kg.CompareTripleIDs)
	}
	return &HomologousNode{
		Key:       subj + "\x00" + name,
		SubjectID: subj,
		Name:      name,
		Num:       len(members),
		members:   members,
	}
}

// node returns the homologous node of a key, if its posting has ≥2 members.
func (sg *SG) node(subjH, predH int32) (*HomologousNode, bool) {
	posting := sg.graph.KeyPosting(subjH, predH)
	if len(posting) < 2 {
		return nil, false
	}
	return newHomologousNode(sg.graph, subjH, predH, posting), true
}

// keyHandles resolves (subject, predicate) to handles; ok is false when either
// is unknown to the graph.
func (sg *SG) keyHandles(subjectID, predicate string) (subjH, predH int32, ok bool) {
	if subjH, ok = sg.graph.EntityHandle(subjectID); ok {
		predH, ok = sg.graph.PredicateHandle(predicate)
	}
	return subjH, predH, ok
}

// Graph returns the underlying knowledge graph.
func (sg *SG) Graph() *kg.Graph { return sg.graph }

// Lookup returns the homologous node for (subject, predicate), if any.
func (sg *SG) Lookup(subjectID, predicate string) (*HomologousNode, bool) {
	subjH, predH, ok := sg.keyHandles(subjectID, predicate)
	if !ok {
		return nil, false
	}
	return sg.node(subjH, predH)
}

// NestedCandidates returns the homologous nodes holding subjectID's nested
// attributes under relation — names of the form relation+"_..." (status →
// status_state) — in name order. The names come from the subject's own
// triples (a posting of about a dozen handles), so the lookup costs the same
// on the first query after a publish as on any other and never scans nodes.
func (sg *SG) NestedCandidates(subjectID, relation string) []*HomologousNode {
	g := sg.graph
	subjH, ok := g.EntityHandle(subjectID)
	if !ok {
		return nil
	}
	prefix := relation + "_"
	var preds []int32
	for _, h := range g.SubjectPosting(subjH) {
		_, predH := g.TripleKeyHandles(h)
		if strings.HasPrefix(g.PredicateAt(predH), prefix) && !slices.Contains(preds, predH) {
			preds = append(preds, predH)
		}
	}
	slices.SortFunc(preds, func(a, b int32) int { return strings.Compare(g.PredicateAt(a), g.PredicateAt(b)) })
	var out []*HomologousNode
	for _, predH := range preds {
		if n, ok := sg.node(subjH, predH); ok {
			out = append(out, n)
		}
	}
	return out
}

// LookupIsolated returns the isolated triple for (subject, predicate), if the
// key exists but has a single member.
func (sg *SG) LookupIsolated(subjectID, predicate string) (*kg.Triple, bool) {
	subjH, predH, ok := sg.keyHandles(subjectID, predicate)
	if !ok {
		return nil, false
	}
	posting := sg.graph.KeyPosting(subjH, predH)
	if len(posting) != 1 {
		return nil, false
	}
	t := sg.graph.TripleAt(posting[0])
	return t, t != nil
}

// MemberTriples resolves a homologous node's members to the triples still
// live in the graph, in the order of their IDs: an array-indexed handle load
// per member.
func (sg *SG) MemberTriples(n *HomologousNode) []*kg.Triple {
	out := make([]*kg.Triple, 0, len(n.members))
	for _, h := range n.members {
		if t := sg.graph.TripleAt(h); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Stats summarises SG′ for reporting and debugging.
type Stats struct {
	HomologousNodes int
	Isolated        int
}

// ComputeStats returns aggregate statistics of the homologous structure: the
// graph's key counts, an O(1) read.
func (sg *SG) ComputeStats() Stats {
	isolated, grouped := sg.graph.KeyCounts()
	return Stats{HomologousNodes: grouped, Isolated: isolated}
}
