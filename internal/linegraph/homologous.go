// Package linegraph implements the multi-source line graph machinery of
// §II–§III-C: homologous data detection (Definition 3), homologous nodes and
// subgraphs (Definition 4) and the homologous triple line graph SG′
// (Definition 5) with its O(n log n) matching algorithm. SG′ is built
// straight from the graph's (subject, predicate) key postings; the full
// triple line graph G′ of Definition 2 is never materialised. SG′ is the
// structure that makes multi-source consistency checks a hash lookup instead
// of a corpus scan.
package linegraph

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"multirag/internal/kg"
)

// HomologousNode is the homologous centre node snode = {name, meta, num,
// C(v)} of Definition 4, plus the member triples U_snode. A node keeps only
// what it cannot derive from its members: the association-edge weights
// E_snode = {wᵢ} are the member triples' own Weight fields, and their IDs and
// sources are the triples' own too (MemberTriples), not copies. One
// homologous node aggregates every claim the corpus makes about a single
// (subject, predicate) key.
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
// Both indexes — key → homologous node and key → isolated triple — are
// copy-on-write overlays: a frozen base shared with the previous generation
// plus a private tail of keys the last delta touched, flattened into a fresh
// base once the tail grows to a constant fraction of it. BuildDelta therefore
// copies O(|delta|) entries per batch instead of the whole corpus's key
// space. Access goes through Lookup/Node/ForEachNode/NumNodes.
type SG struct {
	nodes overlay[*HomologousNode]
	// isoIndex maps an isolated triple's key to its handle plus one, so the
	// overlay's zero-value tombstone never names handle 0.
	isoIndex overlay[int32]
	graph    *kg.Graph

	// memberTotal and maxGroup carry the aggregate member statistics
	// incrementally: Build accumulates them during its single construction
	// walk and BuildDelta adjusts them per touched key, so ComputeStats is an
	// O(1) read instead of the full node re-walk every ingest commit used to
	// pay. maxGroup is maintained monotonically — exact for the pure-addition
	// deltas BuildDelta accepts (a key's member set only grows); destructive
	// mutation goes through a full Build, which recomputes it from scratch.
	memberTotal int
	maxGroup    int

	// nodeScans counts homologous nodes visited through ForEachNode — the
	// instrumentation hook behind the "no full scan on the query hot path"
	// tests. Stats/debug walks go through the overlay directly and are not
	// counted.
	nodeScans atomic.Int64
}

// Build runs homologous subgraph matching (§III-C) over g and assembles SG′.
//
// The algorithm follows the paper: group nodes by their retrieval key; every
// group with at least two members forms a homologous subgraph (its line-graph
// form is the complete graph over the members, Fig. 4); singleton groups go
// to the isolated point set LVs. The grouping pass is a single walk over the
// graph's interned (subject, predicate) key postings — the grouping hash map
// the string-keyed implementation rebuilt per call already exists inside the
// graph — and the final per-node ordering sort is O(n log n), matching the
// stated complexity bound.
func Build(g *kg.Graph) *SG {
	sg := &SG{graph: g}
	g.ForEachKeyPosting(func(subjH, predH int32, posting []int32) {
		switch len(posting) {
		case 0: // fully-removed key
		case 1:
			t := g.TripleAt(posting[0])
			if t == nil {
				return
			}
			sg.isoIndex.put(g.Key(t), t.Handle()+1)
		default:
			members := make([]*kg.Triple, 0, len(posting))
			for _, h := range posting {
				if t := g.TripleAt(h); t != nil {
					members = append(members, t)
				}
			}
			switch len(members) {
			case 0:
			case 1:
				sg.isoIndex.put(g.Key(members[0]), members[0].Handle()+1)
			default:
				key := g.Key(members[0])
				sg.putNode(key, newHomologousNode(g, key, members))
			}
		}
	})
	return sg
}

// putNode installs a homologous node and folds it into the incremental
// aggregate statistics. Both Build and BuildDelta insert through here.
func (sg *SG) putNode(key string, n *HomologousNode) {
	sg.nodes.put(key, n)
	sg.memberTotal += n.Num
	if n.Num > sg.maxGroup {
		sg.maxGroup = n.Num
	}
}

// delNode removes a homologous node (if the key holds one) and deducts it
// from the aggregate statistics. maxGroup is left as a monotone upper bound;
// see the field comment.
func (sg *SG) delNode(key string) {
	if old, ok := sg.nodes.get(key); ok {
		sg.memberTotal -= old.Num
	}
	sg.nodes.del(key)
}

// newHomologousNode assembles the homologous centre node for one key group
// (≥2 members). Both the full Build and the incremental BuildDelta construct
// nodes through here, so delta-maintained and from-scratch SGs are
// structurally identical. It makes the same two allocations whatever the
// group's size: the node and its handle slice. SubjectID and Name are the
// graph's own stored strings.
func newHomologousNode(g *kg.Graph, key string, members []*kg.Triple) *HomologousNode {
	node := &HomologousNode{
		Key:       key,
		SubjectID: g.Subject(members[0]),
		Name:      g.Predicate(members[0]),
		Num:       len(members),
		members:   make([]int32, len(members)),
	}
	for i, t := range members {
		node.members[i] = t.Handle()
	}
	slices.SortFunc(node.members, kg.CompareTripleIDs)
	return node
}

// Graph returns the underlying knowledge graph.
func (sg *SG) Graph() *kg.Graph { return sg.graph }

// Lookup returns the homologous node for (subject, predicate), if any.
func (sg *SG) Lookup(subjectID, predicate string) (*HomologousNode, bool) {
	return sg.nodes.get(subjectID + "\x00" + predicate)
}

// Node returns the homologous node for a precomputed Graph.Key value.
func (sg *SG) Node(key string) (*HomologousNode, bool) { return sg.nodes.get(key) }

// NumNodes returns the number of homologous nodes (keys with ≥2 members).
func (sg *SG) NumNodes() int { return sg.nodes.n }

// ForEachNode visits every homologous node, in unspecified order. Each visit
// is charged to the NodeScans counter; hot paths should use Lookup or
// NestedCandidates instead.
func (sg *SG) ForEachNode(fn func(key string, n *HomologousNode)) {
	sg.nodes.forEach(func(k string, n *HomologousNode) {
		sg.nodeScans.Add(1)
		fn(k, n)
	})
}

// NodeScans reports how many homologous nodes ForEachNode has visited over
// this SG's lifetime. Tests use it to assert the query path stays scan-free.
func (sg *SG) NodeScans() int64 { return sg.nodeScans.Load() }

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
	var names []string
	for _, h := range g.SubjectPosting(subjH) {
		_, predH := g.TripleKeyHandles(h)
		if p := g.PredicateAt(predH); strings.HasPrefix(p, prefix) && !slices.Contains(names, p) {
			names = append(names, p)
		}
	}
	sort.Strings(names)
	var out []*HomologousNode
	for _, name := range names {
		if n, ok := sg.Lookup(subjectID, name); ok {
			out = append(out, n)
		}
	}
	return out
}

// LookupIsolated returns the isolated triple for (subject, predicate), if the
// key exists but has a single member.
func (sg *SG) LookupIsolated(subjectID, predicate string) (*kg.Triple, bool) {
	h, ok := sg.isoIndex.get(subjectID + "\x00" + predicate)
	if !ok {
		return nil, false
	}
	t := sg.graph.TripleAt(h - 1)
	return t, t != nil
}

// IsolatedIDs returns the IDs of triples whose key has a single member,
// sorted. It builds the list on each call; nothing on the query or ingest
// path needs it.
func (sg *SG) IsolatedIDs() []string {
	hs := make([]int32, 0, sg.isoIndex.n)
	sg.isoIndex.forEach(func(_ string, h int32) { hs = append(hs, h-1) })
	slices.SortFunc(hs, kg.CompareTripleIDs)
	ids := make([]string, len(hs))
	for i, h := range hs {
		ids[i] = kg.TripleID(h)
	}
	return ids
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
	MeanGroupSize   float64
	MaxGroupSize    int
}

// ComputeStats returns aggregate statistics of the homologous structure. The
// aggregates are maintained incrementally by Build and BuildDelta, so this is
// an O(1) read — safe to call per ingest commit (it used to re-walk every
// homologous node each time). RecomputeStats is the walking oracle.
func (sg *SG) ComputeStats() Stats {
	st := Stats{HomologousNodes: sg.nodes.n, Isolated: sg.isoIndex.n, MaxGroupSize: sg.maxGroup}
	if sg.nodes.n > 0 {
		st.MeanGroupSize = float64(sg.memberTotal) / float64(sg.nodes.n)
	} else {
		st.MaxGroupSize = 0
	}
	return st
}

// RecomputeStats derives the statistics by walking every homologous node —
// the pre-incremental implementation, kept as the test oracle for
// ComputeStats.
func (sg *SG) RecomputeStats() Stats {
	st := Stats{HomologousNodes: sg.nodes.n, Isolated: sg.isoIndex.n}
	total := 0
	sg.nodes.forEach(func(_ string, n *HomologousNode) {
		total += n.Num
		if n.Num > st.MaxGroupSize {
			st.MaxGroupSize = n.Num
		}
	})
	if sg.nodes.n > 0 {
		st.MeanGroupSize = float64(total) / float64(sg.nodes.n)
	}
	return st
}
