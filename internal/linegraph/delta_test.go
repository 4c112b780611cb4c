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

// requireEqualSG asserts that a delta-chained SG and Build over the same
// graph are structurally identical: same homologous nodes (keys, members,
// weights, sources), same isolated point set, same aggregate stats.
func requireEqualSG(t *testing.T, got, want *SG) {
	t.Helper()
	if !reflect.DeepEqual(got.ComputeStats(), want.ComputeStats()) {
		t.Fatalf("stats diverge: delta=%+v scratch=%+v", got.ComputeStats(), want.ComputeStats())
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
// claim arrives, and lookups must follow. The second claim goes into a clone,
// as the serving engine commits.
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
	g = g.Clone()
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

// requireSameView asserts that got answers every key of its graph as want
// does: equal ComputeStats, and equal Lookup and LookupIsolated results.
func requireSameView(t *testing.T, label string, got, want *SG) {
	t.Helper()
	if g, w := got.ComputeStats(), want.ComputeStats(); g != w {
		t.Fatalf("%s: ComputeStats = %+v, Build %+v", label, g, w)
	}
	g := want.Graph()
	g.ForEachKeyPosting(func(subjH, predH int32, _ []int32) {
		subj, pred := g.EntityAt(subjH).ID, g.PredicateAt(predH)
		gn, gok := got.Lookup(subj, pred)
		wn, wok := want.Lookup(subj, pred)
		if gok != wok || !reflect.DeepEqual(gn, wn) {
			t.Fatalf("%s: Lookup(%q, %q) = %+v %v, Build %+v %v", label, subj, pred, gn, gok, wn, wok)
		}
		gt, gok := got.LookupIsolated(subj, pred)
		wt, wok := want.LookupIsolated(subj, pred)
		if gok != wok || gt != wt {
			t.Fatalf("%s: LookupIsolated(%q, %q) = %v %v, Build %v %v", label, subj, pred, gt, gok, wt, wok)
		}
	})
}

// TestBuildDeltaInPlace covers the pattern recovery replay uses: the delta is
// added to the very graph prev views, with no clone, so prev's graph already
// holds it when BuildDelta runs. Random scripts over a small key space turn
// isolated points into homologous nodes and grow existing nodes; the
// delta-maintained SG must answer as Build over the grown graph does.
func TestBuildDeltaInPlace(t *testing.T) {
	promotions := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := kg.New()
		addRandomBatch(t, g, rng, 1+rng.Intn(10))
		sg := Build(g)
		for step := 0; step < 6; step++ {
			before := map[string]int{}
			g.ForEachKeyPosting(func(subjH, predH int32, p []int32) {
				before[g.EntityAt(subjH).ID+"\x00"+g.PredicateAt(predH)] = len(p)
			})
			ids := addRandomBatch(t, g, rng, 1+rng.Intn(6))
			for _, id := range ids {
				tr, _ := g.Triple(id)
				if before[g.Key(tr)] == 1 {
					promotions++
					before[g.Key(tr)] = 0
				}
			}
			sg = BuildDelta(sg, g, ids)
			requireSameView(t, fmt.Sprintf("seed %d step %d", seed, step), sg, Build(g))
		}
	}
	if promotions == 0 {
		t.Fatal("no script promoted an isolated point to a homologous node")
	}
}
