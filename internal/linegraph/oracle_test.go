package linegraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"multirag/internal/kg"
)

// refNode is the seed's homologous node, which stored its members' IDs and
// its distinct sources.
type refNode struct {
	Key, SubjectID, Name string
	Num                  int
	Members, Sources     []string
}

// memberIDs derives the seed's Members field from a node: its member
// handles' IDs, in member order.
func memberIDs(n *HomologousNode) []string {
	ids := make([]string, len(n.members))
	for i, h := range n.members {
		ids[i] = kg.TripleID(h)
	}
	return ids
}

// memberSources derives the seed's Sources field from a node: the distinct
// sources of its live member triples, sorted.
func memberSources(sg *SG, n *HomologousNode) []string {
	var srcs []string
	for _, t := range sg.MemberTriples(n) {
		srcs = append(srcs, t.Source)
	}
	sort.Strings(srcs)
	return slices.Compact(srcs)
}

// refBuild is the seed homologous matching: group live triples by key with a
// fresh hash map. It returns the expected node/isolated partition as plain
// data for field-by-field comparison.
func refBuild(g *kg.Graph) (nodes map[string]*refNode, isolated []string) {
	nodes = map[string]*refNode{}
	groups := map[string][]*kg.Triple{}
	for _, id := range g.TripleIDs() {
		t, _ := g.Triple(id)
		groups[g.Key(t)] = append(groups[g.Key(t)], t)
	}
	for key, members := range groups {
		if len(members) < 2 {
			isolated = append(isolated, members[0].ID())
			continue
		}
		n := &refNode{
			Key:       key,
			SubjectID: g.Subject(members[0]),
			Name:      g.Predicate(members[0]),
			Num:       len(members),
		}
		srcSet := map[string]bool{}
		for _, t := range members {
			n.Members = append(n.Members, t.ID())
			srcSet[t.Source] = true
		}
		sort.Strings(n.Members)
		for s := range srcSet {
			n.Sources = append(n.Sources, s)
		}
		sort.Strings(n.Sources)
		nodes[key] = n
	}
	sort.Strings(isolated)
	return nodes, isolated
}

// refStats derives Stats from refBuild's partition, without the graph's key
// counts.
func refStats(nodes map[string]*refNode, isolated []string) Stats {
	return Stats{HomologousNodes: len(nodes), Isolated: len(isolated)}
}

// walkStats is the line graph's count oracle: one walk over every key
// posting of g, counting the postings of one live triple and of two or more.
// ComputeStats reads counts the graph keeps instead, so a count that goes
// stale under some mutation shows here.
func walkStats(g *kg.Graph) Stats {
	var st Stats
	g.ForEachKeyPosting(func(_, _ int32, posting []int32) {
		switch {
		case len(posting) == 1:
			st.Isolated++
		case len(posting) >= 2:
			st.HomologousNodes++
		}
	})
	return st
}

// requireMatchesReference holds sg to the oracles over its graph as it is
// now: ComputeStats and NumNodes to the walk of the key postings, and the
// isolated points and every homologous node's header and members to
// refBuild's group-by-scan.
func requireMatchesReference(t *testing.T, label string, sg *SG) {
	t.Helper()
	g := sg.Graph()
	want := walkStats(g)
	if got := sg.ComputeStats(); got != want {
		t.Fatalf("%s: ComputeStats = %+v, walk %+v", label, got, want)
	}
	nodes, isolated := refBuild(g)
	if ref := refStats(nodes, isolated); ref != want {
		t.Fatalf("%s: walk %+v, group-by-scan %+v", label, want, ref)
	}
	if sg.NumNodes() != len(nodes) {
		t.Fatalf("%s: NumNodes = %d, want %d", label, sg.NumNodes(), len(nodes))
	}
	if got := sg.IsolatedIDs(); !slices.Equal(got, isolated) {
		t.Fatalf("%s: isolated points %v, want %v", label, got, isolated)
	}
	for key, wn := range nodes {
		gn, ok := sg.Node(key)
		if !ok {
			t.Fatalf("%s: node %q missing", label, key)
		}
		if gn.Key != wn.Key || gn.SubjectID != wn.SubjectID || gn.Name != wn.Name || gn.Num != wn.Num ||
			!reflect.DeepEqual(memberIDs(gn), wn.Members) || !reflect.DeepEqual(memberSources(sg, gn), wn.Sources) {
			t.Fatalf("%s: node %q = %+v (members %v), want %+v", label, key, gn, memberIDs(gn), wn)
		}
	}
}

// randomLinkedGraph builds a graph with colliding keys, entity-valued
// objects (including self-loops) and optional removals.
func randomLinkedGraph(tb testing.TB, rng *rand.Rand, n int, withRemovals bool) *kg.Graph {
	tb.Helper()
	g := kg.New()
	for i := 0; i < 10; i++ {
		g.AddEntity(fmt.Sprintf("e%d", i), "T", "d")
	}
	var live []string
	for i := 0; i < n; i++ {
		subj := fmt.Sprintf("e%d", rng.Intn(10))
		obj := fmt.Sprintf("v%d", rng.Intn(6))
		if rng.Intn(2) == 0 {
			obj = fmt.Sprintf("e%d", rng.Intn(10)) // entity link, maybe subj==obj
		}
		id, err := g.AddTriple(kg.Fact{
			Subject:   subj,
			Predicate: fmt.Sprintf("p%d", rng.Intn(4)),
			Object:    obj,
			Source:    fmt.Sprintf("s%d", rng.Intn(3)),
			Weight:    0.25 * float64(1+rng.Intn(4)),
		})
		if err != nil {
			tb.Fatal(err)
		}
		live = append(live, id)
	}
	if withRemovals {
		for i := 0; i < n/5 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			g.RemoveTriple(live[j])
			live = append(live[:j], live[j+1:]...)
		}
	}
	return g
}

// TestBuildMatchesReference: Build over the graph's interned key postings is
// observation-equivalent to the seed group-by-scan, including after
// removals.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := randomLinkedGraph(t, rng, 40+rng.Intn(80), seed%2 == 0)
			sg := Build(g)
			wantNodes, wantIsolated := refBuild(g)
			if !reflect.DeepEqual(sg.IsolatedIDs(), wantIsolated) &&
				!(len(sg.IsolatedIDs()) == 0 && len(wantIsolated) == 0) {
				t.Fatalf("isolated diverge:\n got  %v\n want %v", sg.IsolatedIDs(), wantIsolated)
			}
			if sg.NumNodes() != len(wantNodes) {
				t.Fatalf("node counts diverge: %d vs %d", sg.NumNodes(), len(wantNodes))
			}
			for key, want := range wantNodes {
				got, ok := sg.Node(key)
				if !ok {
					t.Fatalf("missing node %q", key)
				}
				if got.Key != want.Key || got.SubjectID != want.SubjectID ||
					got.Name != want.Name || got.Num != want.Num ||
					!reflect.DeepEqual(memberIDs(got), want.Members) ||
					!reflect.DeepEqual(memberSources(sg, got), want.Sources) {
					t.Fatalf("node %q diverges:\n got  %+v (members %v, sources %v)\n want %+v",
						key, got, memberIDs(got), memberSources(sg, got), want)
				}
				// Member handle resolution must agree with string resolution.
				ts := sg.MemberTriples(got)
				if len(ts) != len(want.Members) {
					t.Fatalf("MemberTriples(%q) = %d triples, want %d", key, len(ts), len(want.Members))
				}
				for i, tr := range ts {
					if tr.ID() != want.Members[i] {
						t.Fatalf("member %d of %q resolves to %s, want %s", i, key, tr.ID(), want.Members[i])
					}
				}
			}
		})
	}
}

// TestBuildStatsMatchReference holds Build's counts to statistics derived
// from refBuild, which does not read the graph's key counts.
func TestBuildStatsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomLinkedGraph(t, rng, 40+rng.Intn(80), seed%2 == 0)
		sg := Build(g)
		want := refStats(refBuild(g))
		if got := sg.ComputeStats(); got != want {
			t.Fatalf("seed %d: ComputeStats = %+v, reference %+v", seed, got, want)
		}
	}
}
