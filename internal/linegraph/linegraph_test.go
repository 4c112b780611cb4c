package linegraph

import (
	"fmt"
	"testing"
	"testing/quick"

	"multirag/internal/kg"
)

func graphWithConflicts(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.New()
	g.AddEntity("CA981", "Flight", "flights")
	g.AddEntity("Heat", "Movie", "movies")
	add := func(subj, pred, obj, src string, w float64) {
		t.Helper()
		if _, err := g.AddTriple(kg.Fact{
			Subject: kg.CanonicalID(subj), Predicate: pred, Object: obj,
			Source: src, Weight: w,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Four homologous claims about CA981 status (Fig. 4's K4 example).
	add("CA981", "status", "Delayed", "airline", 0.9)
	add("CA981", "status", "Delayed", "airport", 0.9)
	add("CA981", "status", "On time", "forum", 0.4)
	add("CA981", "status", "Delayed", "weather", 0.8)
	// Two homologous year claims about Heat.
	add("Heat", "year", "1995", "imdb", 1)
	add("Heat", "year", "1996", "scraper", 0.5)
	// One isolated claim.
	add("Heat", "runtime", "170", "imdb", 1)
	return g
}

func TestBuildHomologousGroups(t *testing.T) {
	g := graphWithConflicts(t)
	sg := Build(g)
	if sg.NumNodes() != 2 {
		t.Fatalf("homologous nodes = %d, want 2", sg.NumNodes())
	}
	node, ok := sg.Lookup(kg.CanonicalID("CA981"), "status")
	if !ok {
		t.Fatal("CA981 status group missing")
	}
	if node.Num != 4 || len(memberIDs(node)) != 4 {
		t.Fatalf("group size = %d", node.Num)
	}
	if srcs := memberSources(sg, node); len(srcs) != 4 {
		t.Fatalf("sources = %v", srcs)
	}
	if node.Name != "status" || node.SubjectID != kg.CanonicalID("CA981") {
		t.Fatalf("key decomposition wrong: %+v", node)
	}
	for _, m := range sg.MemberTriples(node) {
		if m.Weight <= 0 {
			t.Fatalf("member %s has no weight", m.ID())
		}
	}
}

// TestNewHomologousNodeAllocs: a node built from a key posting costs the same
// number of allocations whatever its group's size — no per-node map whose
// buckets grow with the members, no per-member string, no slice grown by
// append.
func TestNewHomologousNodeAllocs(t *testing.T) {
	g := kg.New()
	g.AddEntity("e", "T", "d")
	for i := 0; i < 32; i++ {
		if _, err := g.AddTriple(kg.Fact{Subject: "e", Predicate: "p", Object: fmt.Sprint(i % 3),
			Source: fmt.Sprintf("s%d", i%5), Weight: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	subjH, predH := g.TripleKeyHandles(0)
	posting := g.KeyPosting(subjH, predH)
	allocs := map[int]float64{}
	for _, n := range []int{2, 8, 32} {
		allocs[n] = testing.AllocsPerRun(50, func() { newHomologousNode(g, subjH, predH, posting[:n]) })
	}
	if allocs[2] != allocs[8] || allocs[8] != allocs[32] {
		t.Fatalf("allocations per node by member count %v, want the same for every size", allocs)
	}
	sg := &SG{graph: g}
	if n := newHomologousNode(g, subjH, predH, posting); len(memberSources(sg, n)) != 5 || n.Num != 32 {
		t.Fatalf("node of 32 members from 5 sources: Num %d, Sources %v", n.Num, memberSources(sg, n))
	}
}

func TestBuildIsolated(t *testing.T) {
	g := graphWithConflicts(t)
	sg := Build(g)
	if len(sg.IsolatedIDs()) != 1 {
		t.Fatalf("isolated = %v, want exactly the runtime triple", sg.IsolatedIDs())
	}
	tr, ok := sg.LookupIsolated(kg.CanonicalID("Heat"), "runtime")
	if !ok || tr.Object != "170" {
		t.Fatalf("isolated lookup = %v, %v", tr, ok)
	}
	if _, ok := sg.Lookup(kg.CanonicalID("Heat"), "runtime"); ok {
		t.Fatal("singleton key must not form a homologous node")
	}
}

func TestMemberTriples(t *testing.T) {
	g := graphWithConflicts(t)
	sg := Build(g)
	node, _ := sg.Lookup(kg.CanonicalID("Heat"), "year")
	ts := sg.MemberTriples(node)
	if len(ts) != 2 {
		t.Fatalf("member triples = %d", len(ts))
	}
}

func TestComputeStats(t *testing.T) {
	g := graphWithConflicts(t)
	st := Build(g).ComputeStats()
	if st.HomologousNodes != 2 || st.Isolated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: every triple lands in exactly one place — a homologous node or
// the isolated set — and group sizes sum to the triple count.
func TestPartitionProperty(t *testing.T) {
	f := func(assign []uint8) bool {
		g := kg.New()
		for i := 0; i < 4; i++ {
			g.AddEntity(fmt.Sprintf("e%d", i), "", "")
		}
		for i, a := range assign {
			_, err := g.AddTriple(kg.Fact{
				Subject:   fmt.Sprintf("e%d", a%4),
				Predicate: fmt.Sprintf("p%d", (a/4)%3),
				Object:    fmt.Sprintf("v%d", i),
			})
			if err != nil {
				return false
			}
		}
		sg := Build(g)
		total := len(sg.IsolatedIDs())
		seen := map[string]bool{}
		for _, id := range sg.IsolatedIDs() {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		okNodes := true
		sg.ForEachNode(func(_ string, n *HomologousNode) {
			if n.Num < 2 || n.Num != len(memberIDs(n)) {
				okNodes = false
			}
			total += n.Num
			for _, id := range memberIDs(n) {
				if seen[id] {
					okNodes = false
				}
				seen[id] = true
			}
		})
		return okNodes && total == g.NumTriples()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
