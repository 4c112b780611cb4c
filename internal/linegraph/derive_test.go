package linegraph

import (
	"math/rand"
	"reflect"
	"testing"

	"multirag/internal/kg"
	"multirag/internal/wal"
)

// Checkpoints store no line graph: it is a function of the graph, rebuilt by
// Build from the decoded graph. These tests hold that derivation to the SG
// the checkpointed system served.

// roundTrip returns g decoded from its checkpoint encoding.
func roundTrip(t *testing.T, g *kg.Graph) *kg.Graph {
	t.Helper()
	var e wal.Encoder
	g.EncodeTo(&e)
	d := wal.NewDecoder(e.Bytes())
	got, err := kg.DecodeGraph(d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// requireSGEqual compares two SGs through the public surface the query path
// reads.
func requireSGEqual(t *testing.T, got, want *SG) {
	t.Helper()
	if g, w := got.ComputeStats(), want.ComputeStats(); g != w {
		t.Fatalf("ComputeStats diverges: got %+v want %+v", g, w)
	}
	if g, w := got.IsolatedIDs(), want.IsolatedIDs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("IsolatedIDs diverges: got %v want %v", g, w)
	}
	want.ForEachNode(func(key string, wn *HomologousNode) {
		gn, ok := got.Node(key)
		if !ok {
			t.Fatalf("node %q missing", key)
		}
		if gn.Key != wn.Key || gn.SubjectID != wn.SubjectID || gn.Name != wn.Name || gn.Num != wn.Num {
			t.Fatalf("node %q header diverges: got %+v want %+v", key, gn, wn)
		}
		if g, w := memberIDs(gn), memberIDs(wn); !reflect.DeepEqual(g, w) {
			t.Fatalf("node %q members diverge: got %v want %v", key, g, w)
		}
		if !reflect.DeepEqual(memberSources(got, gn), memberSources(want, wn)) {
			t.Fatalf("node %q sources diverge", key)
		}
		if !reflect.DeepEqual(got.MemberTriples(gn), want.MemberTriples(wn)) {
			t.Fatalf("node %q member triples diverge", key)
		}
	})
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes diverges: got %d want %d", got.NumNodes(), want.NumNodes())
	}
}

// TestSGSerializeRoundTrip: the SG Build derives from a graph decoded from
// its checkpoint encoding is the SG of the graph that was encoded — with
// removed triples' slots in the encoding too.
func TestSGSerializeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n            int
		withRemovals bool
	}{
		{"empty", 0, false},
		{"small", 30, false},
		{"removals", 400, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := randomLinkedGraph(t, rng, tc.n, tc.withRemovals)
			requireSGEqual(t, Build(roundTrip(t, g)), Build(g))
		})
	}
}

// TestSGSerializeAfterDelta pins the case recovery and replica seeding
// actually hit: an SG built once and then grown under, in place, by several
// batches, against the SG Build derives from the decoded graph.
func TestSGSerializeAfterDelta(t *testing.T) {
	g := kg.New()
	g.AddEntity("a", "T", "d")
	g.AddEntity("b", "T", "d")
	sg := Build(g)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			if _, err := g.AddTriple(kg.Fact{Subject: []string{"a", "b"}[j%2], Predicate: "p", Object: "v", Source: "s"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireSGEqual(t, Build(roundTrip(t, g)), sg)
}
