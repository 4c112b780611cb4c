package linegraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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
			got, err := DecodeSG(d, g, false)
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
	got, err := DecodeSG(d, g, false)
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

// badSGGraph is the graph the hand-built bodies below are decoded against:
// handles 0, 1 and 4 are a|p, 2 is a|q, 3 and 5 are b|p.
func badSGGraph(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.New()
	g.AddEntity("a", "T", "d")
	g.AddEntity("b", "T", "d")
	for _, tr := range []kg.Triple{
		{Subject: "a", Predicate: "p", Object: "v", Source: "s1"},
		{Subject: "a", Predicate: "p", Object: "w", Source: "s2"},
		{Subject: "a", Predicate: "q", Object: "v"},
		{Subject: "b", Predicate: "p", Object: "v"},
		{Subject: "a", Predicate: "p", Object: "x", Source: "s3"},
		{Subject: "b", Predicate: "p", Object: "y"},
	} {
		if _, err := g.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// sgBody hand-builds a line-graph body: nodes as (key, member handles) and
// isolated points as (key, handle), in the order given, keys stored only when
// keyed (the format that stores them, which names an isolated point's triple
// by ID).
type sgBody struct {
	nodes []sgEntry
	iso   []sgEntry
}

type sgEntry struct {
	key     string
	handles []int
}

func (b sgBody) encode(keyed bool) []byte {
	var e wal.Encoder
	e.Int(len(b.nodes))
	for _, n := range b.nodes {
		if keyed {
			e.String(n.key)
		}
		e.Int(len(n.handles))
		for _, h := range n.handles {
			e.Int(h)
		}
	}
	e.Int(len(b.iso))
	for _, p := range b.iso {
		if keyed {
			e.String(p.key)
			e.String(fmt.Sprintf("t%06d", p.handles[0]+1))
		} else {
			e.Int(p.handles[0])
		}
	}
	e.Int(2) // maxGroup
	return e.Bytes()
}

// TestDecodeSGAcceptsWellFormed: the hand-built bodies the rejection test
// below corrupts decode, in both layouts, to the SG Build makes.
func TestDecodeSGAcceptsWellFormed(t *testing.T) {
	g := badSGGraph(t)
	body := sgBody{
		nodes: []sgEntry{{"a\x00p", []int{0, 1, 4}}, {"b\x00p", []int{3, 5}}},
		iso:   []sgEntry{{"a\x00q", []int{2}}},
	}
	for _, keyed := range []bool{true, false} {
		d := wal.NewDecoder(body.encode(keyed))
		sg, err := DecodeSG(d, g, keyed)
		if err == nil {
			err = d.Finish()
		}
		if err != nil {
			t.Fatalf("keyed=%v: %v", keyed, err)
		}
		requireSGEqual(t, sg, Build(g))
		if !bytes.Equal(encodeSG(sg), encodeSG(Build(g))) {
			t.Fatalf("keyed=%v: decoded SG re-encodes differently from Build's", keyed)
		}
	}
}

// TestDecodeSGRejectsBadMembers: a body whose groups the graph does not hold
// is an error, in both layouts — a dangling handle, a node mixing keys, a
// handle listed twice in one node or in two places, keys out of order or
// repeated, an isolated point sharing a node's key, and in the layout that
// stores keys, a stored key that is not its triples'. "Mixes keys", "same
// handle twice", "isolated point is a node member", "isolated point twice"
// and "isolated key names another key's triple" were accepted in that layout
// while the decoder checked only a node's first member against its key, and
// a replica seeded with such a body served the groups it described.
func TestDecodeSGRejectsBadMembers(t *testing.T) {
	g := badSGGraph(t)
	for _, tc := range []struct {
		name      string
		body      sgBody
		keyedOnly bool
		want      string // in the error
	}{
		{"dangling handle", sgBody{nodes: []sgEntry{{"a\x00p", []int{0, 99}}}}, false, "not a live triple"},
		{"one member", sgBody{nodes: []sgEntry{{"a\x00p", []int{0}}}}, false, "1 members"},
		{"mixes keys", sgBody{nodes: []sgEntry{{"a\x00p", []int{0, 2}}}}, false, "mixes keys"},
		{"same handle twice", sgBody{nodes: []sgEntry{{"a\x00p", []int{0, 0}}}}, false, "appears twice"},
		{"isolated point is a node member", sgBody{
			nodes: []sgEntry{{"a\x00p", []int{0, 1, 4}}},
			iso:   []sgEntry{{"a\x00p", []int{1}}}}, false, "appears twice"},
		{"isolated point twice", sgBody{iso: []sgEntry{{"a\x00q", []int{2}}, {"a\x00q", []int{2}}}}, false, "appears twice"},
		{"isolated point shares a node's key", sgBody{
			nodes: []sgEntry{{"a\x00p", []int{0, 1}}},
			iso:   []sgEntry{{"a\x00p", []int{4}}}}, false, "also a homologous node"},
		{"nodes out of order", sgBody{nodes: []sgEntry{{"b\x00p", []int{3, 5}}, {"a\x00p", []int{0, 1}}}}, false, "follows"},
		{"isolated points out of order", sgBody{iso: []sgEntry{{"b\x00p", []int{3}}, {"a\x00q", []int{2}}}}, false, "follows"},
		{"stored node key is not its members'", sgBody{nodes: []sgEntry{{"b\x00p", []int{0, 1}}}}, true, "holds members keyed"},
		{"isolated key names another key's triple", sgBody{iso: []sgEntry{{"b\x00p", []int{2}}}}, true, "names triple"},
	} {
		for _, keyed := range []bool{true, false} {
			if tc.keyedOnly && !keyed {
				continue
			}
			_, err := DecodeSG(wal.NewDecoder(tc.body.encode(keyed)), g, keyed)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (keyed=%v): %v, want an error naming %q", tc.name, keyed, err, tc.want)
			}
		}
	}
}
