package linegraph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"multirag/internal/kg"
	"multirag/internal/wal"
)

func encodeSG(sg *SG) []byte {
	var e wal.Encoder
	sg.EncodeTo(&e)
	return append([]byte(nil), e.Bytes()...)
}

// requireSGEqual compares two SGs over the same graph through the public
// surface the query path reads.
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
			t.Fatalf("node %q missing after decode", key)
		}
		if gn.Key != wn.Key || gn.SubjectID != wn.SubjectID || gn.Name != wn.Name || gn.Num != wn.Num {
			t.Fatalf("node %q header diverges: got %+v want %+v", key, gn, wn)
		}
		if !reflect.DeepEqual(gn.Members, wn.Members) {
			t.Fatalf("node %q members diverge: got %v want %v", key, gn.Members, wn.Members)
		}
		if !reflect.DeepEqual(gn.Sources, wn.Sources) {
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
			sg := Build(g)
			raw := encodeSG(sg)
			d := wal.NewDecoder(raw)
			got, err := DecodeSG(d, g)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			requireSGEqual(t, got, sg)
			if !bytes.Equal(encodeSG(got), raw) {
				t.Fatal("re-encoded bytes differ from original encoding")
			}
		})
	}
}

// TestSGSerializeAfterDelta pins the case recovery actually hits: an SG grown
// through BuildDelta generations (overlay tails, monotone maxGroup) rather
// than one fresh Build.
func TestSGSerializeAfterDelta(t *testing.T) {
	g := kg.New()
	g.AddEntity("a", "T", "d")
	g.AddEntity("b", "T", "d")
	sg := Build(g)
	for i := 0; i < 6; i++ {
		var ids []string
		for j := 0; j < 3; j++ {
			id, err := g.AddTriple(kg.Triple{Subject: "a", Predicate: "p", Object: "v", Source: "s"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		sg = BuildDelta(sg, g, ids)
	}
	raw := encodeSG(sg)
	d := wal.NewDecoder(raw)
	got, err := DecodeSG(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	requireSGEqual(t, got, sg)
	if !bytes.Equal(encodeSG(got), raw) {
		t.Fatal("re-encoded bytes differ")
	}
}

func TestDecodeSGRejectsBadMembers(t *testing.T) {
	g := kg.New()
	g.AddEntity("a", "T", "d")
	if _, err := g.AddTriple(kg.Triple{Subject: "a", Predicate: "p", Object: "v"}); err != nil {
		t.Fatal(err)
	}
	var e wal.Encoder
	e.Int(1)           // one node
	e.String("a\x00p") // key
	e.Int(2)           // two members
	e.Int(0)           // valid handle
	e.Int(99)          // dangling handle
	if _, err := DecodeSG(wal.NewDecoder(e.Bytes()), g); err == nil {
		t.Fatal("decode accepted a dangling member handle")
	}
}
