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
	"sync"
	"sync/atomic"

	"multirag/internal/kg"
)

// HomologousNode is the homologous centre node snode = {name, meta, num,
// C(v)} of Definition 4, plus the member triples U_snode. A node keeps only
// what it cannot derive from its members: the association-edge weights
// E_snode = {wᵢ} are the member triples' own Weight fields (MemberTriples),
// not a copy. One homologous node aggregates every claim the corpus makes
// about a single (subject, predicate) key.
type HomologousNode struct {
	// Key is the (subject, predicate) key shared by all member triples.
	Key string
	// SubjectID and Name decompose the key: Name is the common attribute
	// name, SubjectID the canonical subject entity.
	SubjectID string
	Name      string
	// Num is the number of homologous data instances (num in Def. 4).
	Num int
	// Members lists the member triple IDs, sorted.
	Members []string
	// Sources lists the distinct sources contributing members, sorted.
	Sources []string

	// members holds the interned triple handles parallel to Members, so
	// member resolution is an array index instead of a map lookup.
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
	nodes    overlay[*HomologousNode]
	isoIndex overlay[string]
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

	// isolated is the sorted isolated-triple ID list, materialised lazily on
	// first IsolatedIDs call (most snapshots never need it; BuildDelta used
	// to re-sort it on every batch). sync.Once keeps the fill race-free for
	// concurrent readers of a published snapshot.
	isoOnce  sync.Once
	isolated []string

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
			sg.isoIndex.put(t.Key(), t.ID)
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
				sg.isoIndex.put(members[0].Key(), members[0].ID)
			default:
				key := members[0].Key()
				sg.putNode(key, newHomologousNode(key, members))
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
// structurally identical. It makes the same four allocations whatever the
// group's size: the node and its three slices, each sized once.
func newHomologousNode(key string, members []*kg.Triple) *HomologousNode {
	n := len(members)
	node := &HomologousNode{
		Key:       key,
		SubjectID: members[0].Subject,
		Name:      members[0].Predicate,
		Num:       n,
		Members:   make([]string, n),
		Sources:   make([]string, n),
		members:   make([]int32, n),
	}
	for i, t := range members {
		node.Members[i] = t.ID
		node.Sources[i] = t.Source
	}
	sort.Strings(node.Members)
	for i, id := range node.Members {
		node.members[i], _ = kg.ParseTripleID(id)
	}
	sort.Strings(node.Sources)
	node.Sources = slices.Compact(node.Sources)
	return node
}

// Graph returns the underlying knowledge graph.
func (sg *SG) Graph() *kg.Graph { return sg.graph }

// Lookup returns the homologous node for (subject, predicate), if any.
func (sg *SG) Lookup(subjectID, predicate string) (*HomologousNode, bool) {
	return sg.nodes.get(subjectID + "\x00" + predicate)
}

// Node returns the homologous node for a precomputed Triple.Key() value.
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
	id, ok := sg.isoIndex.get(subjectID + "\x00" + predicate)
	if !ok {
		return nil, false
	}
	return sg.graph.Triple(id)
}

// IsolatedIDs returns the IDs of triples whose key has a single member,
// sorted. The list is materialised on first call and cached; the cache fill
// is synchronised, so concurrent readers of a published SG are safe.
func (sg *SG) IsolatedIDs() []string {
	sg.isoOnce.Do(func() {
		sg.isolated = make([]string, 0, sg.isoIndex.n)
		sg.isoIndex.forEach(func(_, id string) {
			sg.isolated = append(sg.isolated, id)
		})
		sort.Strings(sg.isolated)
	})
	return sg.isolated
}

// MemberTriples resolves a homologous node's member IDs to triples, in
// member order. For nodes built by this package the resolution is an
// array-indexed handle load per member; Members strings are only parsed as a
// fallback for hand-constructed nodes.
func (sg *SG) MemberTriples(n *HomologousNode) []*kg.Triple {
	out := make([]*kg.Triple, 0, len(n.Members))
	if len(n.members) == len(n.Members) && len(n.members) > 0 {
		for _, h := range n.members {
			if t := sg.graph.TripleAt(h); t != nil {
				out = append(out, t)
			}
		}
		return out
	}
	for _, id := range n.Members {
		if t, ok := sg.graph.Triple(id); ok {
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
