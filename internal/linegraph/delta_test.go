package linegraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multirag/internal/kg"
)

// addRandomBatch inserts n pseudo-random triples into g (drawn from a small
// entity/predicate space so keys collide and homologous groups form, grow and
// split from isolated points) and returns the new triple IDs.
func addRandomBatch(t *testing.T, g *kg.Graph, rng *rand.Rand, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		subj := fmt.Sprintf("entity-%d", rng.Intn(8))
		pred := fmt.Sprintf("attr%d", rng.Intn(5))
		obj := fmt.Sprintf("value-%d", rng.Intn(4))
		src := fmt.Sprintf("src-%d", rng.Intn(3))
		g.AddEntity(subj, "Entity", "test")
		id, err := g.AddTriple(kg.Fact{
			Subject:   kg.CanonicalID(subj),
			Predicate: pred,
			Object:    obj,
			Source:    src,
			Weight:    0.5 + 0.5*rng.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// requireEqualSG asserts that two SGs over the same graph are structurally
// identical: same homologous nodes (keys, members, weights, sources), same
// isolated point set, same aggregate stats.
func requireEqualSG(t *testing.T, got, want *SG) {
	t.Helper()
	if !reflect.DeepEqual(got.ComputeStats(), want.ComputeStats()) {
		t.Fatalf("stats diverge: delta=%+v scratch=%+v", got.ComputeStats(), want.ComputeStats())
	}
	// The incrementally maintained aggregates must agree with the walking
	// oracle on both sides (delta-chained and from-scratch construction).
	if !reflect.DeepEqual(got.ComputeStats(), got.RecomputeStats()) {
		t.Fatalf("incremental stats drifted from oracle: %+v vs %+v", got.ComputeStats(), got.RecomputeStats())
	}
	if !reflect.DeepEqual(want.ComputeStats(), want.RecomputeStats()) {
		t.Fatalf("scratch stats drifted from oracle: %+v vs %+v", want.ComputeStats(), want.RecomputeStats())
	}
	if !reflect.DeepEqual(got.IsolatedIDs(), want.IsolatedIDs()) {
		t.Fatalf("isolated sets diverge:\n delta   %v\n scratch %v", got.IsolatedIDs(), want.IsolatedIDs())
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("node counts diverge: %d vs %d", got.NumNodes(), want.NumNodes())
	}
	want.ForEachNode(func(key string, wn *HomologousNode) {
		gn, ok := got.Node(key)
		if !ok {
			t.Fatalf("delta SG missing homologous node %q", key)
		}
		if !reflect.DeepEqual(gn, wn) {
			t.Fatalf("node %q diverges:\n delta   %+v\n scratch %+v", key, gn, wn)
		}
	})
	got.ForEachNode(func(key string, _ *HomologousNode) {
		if _, ok := want.Node(key); !ok {
			t.Fatalf("delta SG has spurious homologous node %q", key)
		}
	})
}

// TestBuildDeltaMatchesScratch is the incremental-maintenance property test:
// for a sequence of random ingest batches, the SG maintained by chained
// BuildDelta calls must be structurally identical to a from-scratch Build
// over the union corpus after every batch.
func TestBuildDeltaMatchesScratch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := kg.New()
			var sg *SG
			for batch := 0; batch < 8; batch++ {
				n := 1 + rng.Intn(12)
				ids := addRandomBatch(t, g, rng, n)
				sg = BuildDelta(sg, g, ids)
				requireEqualSG(t, sg, Build(g))
			}
		})
	}
}

// TestBuildDeltaPromotesIsolated pins the key transition: a key that starts
// as an isolated point must be promoted to a homologous node once a second
// claim arrives, and lookups must follow.
func TestBuildDeltaPromotesIsolated(t *testing.T) {
	g := kg.New()
	g.AddEntity("CA981", "Flight", "flights")
	id1, err := g.AddTriple(kg.Fact{
		Subject: kg.CanonicalID("CA981"), Predicate: "status", Object: "Delayed",
		Source: "airline", Weight: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sg := BuildDelta(nil, g, []string{id1})
	if _, ok := sg.LookupIsolated(kg.CanonicalID("CA981"), "status"); !ok {
		t.Fatal("single claim must start isolated")
	}
	id2, err := g.AddTriple(kg.Fact{
		Subject: kg.CanonicalID("CA981"), Predicate: "status", Object: "Delayed",
		Source: "airport", Weight: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := sg
	sg = BuildDelta(prev, g, []string{id2})
	if _, ok := sg.LookupIsolated(kg.CanonicalID("CA981"), "status"); ok {
		t.Fatal("promoted key must leave the isolated set")
	}
	n, ok := sg.Lookup(kg.CanonicalID("CA981"), "status")
	if !ok || n.Num != 2 {
		t.Fatalf("promotion failed: %+v", n)
	}
	// The previous snapshot must be untouched (immutable for readers).
	if _, ok := prev.LookupIsolated(kg.CanonicalID("CA981"), "status"); !ok {
		t.Fatal("previous SG snapshot was mutated by BuildDelta")
	}
}

// TestBuildDeltaSharesUntouchedNodes verifies the O(delta) property: nodes
// whose key the delta does not intersect are shared by pointer with the
// previous SG rather than rebuilt.
func TestBuildDeltaSharesUntouchedNodes(t *testing.T) {
	g := graphWithConflicts(t)
	prev := Build(g)
	untouched, _ := prev.Node(kg.CanonicalID("Heat") + "\x00" + "year")
	id, err := g.AddTriple(kg.Fact{
		Subject: kg.CanonicalID("CA981"), Predicate: "status", Object: "Delayed",
		Source: "radar", Weight: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	next := BuildDelta(prev, g, []string{id})
	if n, _ := next.Node(untouched.Key); n != untouched {
		t.Fatal("untouched homologous node was rebuilt instead of shared")
	}
	nextStatus, _ := next.Node(kg.CanonicalID("CA981") + "\x00" + "status")
	prevStatus, _ := prev.Node(kg.CanonicalID("CA981") + "\x00" + "status")
	if nextStatus == prevStatus {
		t.Fatal("affected homologous node must be rebuilt, not shared")
	}
}
