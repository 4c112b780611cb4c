package linegraph

import (
	"fmt"
	"math/rand"
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

// The three BuildDelta tests pin the alias the benchmark's per-layer pass
// calls: whatever prev and IDs it is handed, it answers as the graph is now.

// TestBuildDeltaMatchesScratch: for a sequence of random ingest batches, the
// SG BuildDelta returns after every batch matches the oracles over the union
// corpus.
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
				requireMatchesReference(t, fmt.Sprintf("batch %d", batch), sg)
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
	if st := prev.ComputeStats(); st != (Stats{Isolated: 1}) {
		t.Fatalf("previous SG snapshot's stats moved: %+v", st)
	}
}

// TestBuildDeltaInPlace covers the pattern recovery replay uses: the delta is
// added to the very graph prev views, with no clone. Random scripts over a
// small key space turn isolated points into homologous nodes and grow
// existing nodes; the SG must answer as the oracles over the grown graph do.
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
			requireMatchesReference(t, fmt.Sprintf("seed %d step %d", seed, step), sg)
		}
	}
	if promotions == 0 {
		t.Fatal("no script promoted an isolated point to a homologous node")
	}
}

// TestViewTracksEveryMutation runs random scripts of in-place adds and
// RemoveTriples, clones and checkpoint round trips over a small key space,
// and holds the SG of the current graph to the oracles after every step. An
// SG is built only when a step makes a new graph (a clone or a decode), never
// after an in-place mutation: its counts must follow removals as they follow
// additions. Every clone's parent must keep the stats it had when the clone
// was taken, whatever the clone does next.
func TestViewTracksEveryMutation(t *testing.T) {
	removals, demotions := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := kg.New()
		sg := Build(g)
		var live []string
		type frozen struct {
			sg *SG
			st Stats
		}
		var parents []frozen
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				live = append(live, addRandomBatch(t, g, rng, 1)...)
			case op < 8 && len(live) > 0:
				j := rng.Intn(len(live))
				tr, _ := g.Triple(live[j])
				if len(g.TriplesByKey(g.Subject(tr), g.Predicate(tr))) == 2 {
					demotions++
				}
				if !g.RemoveTriple(live[j]) {
					t.Fatalf("seed %d step %d: RemoveTriple(%s) found nothing", seed, step, live[j])
				}
				live = append(live[:j], live[j+1:]...)
				removals++
			case op == 8:
				parents = append(parents, frozen{sg, sg.ComputeStats()})
				g = g.Clone()
				sg = Build(g)
			default:
				g = roundTrip(t, g)
				sg = Build(g)
			}
			requireMatchesReference(t, fmt.Sprintf("seed %d step %d", seed, step), sg)
			for i, p := range parents {
				if st := p.sg.ComputeStats(); st != p.st {
					t.Fatalf("seed %d step %d: clone parent %d's stats moved from %+v to %+v", seed, step, i, p.st, st)
				}
			}
		}
	}
	if removals == 0 || demotions == 0 {
		t.Fatalf("scripts removed %d triples and demoted %d homologous nodes; want both", removals, demotions)
	}
}
