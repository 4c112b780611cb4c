package kg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multirag/internal/wal"
)

// buildRandomGraph grows a graph with entity links, self-loops, literal
// objects, entity upgrades and (optionally) removals — every structural case
// the columnar encoding has to carry.
func buildRandomGraph(tb testing.TB, rng *rand.Rand, n int, withRemovals bool) *Graph {
	tb.Helper()
	g := New()
	for i := 0; i < 12; i++ {
		typ, dom := "", ""
		if i%3 == 0 {
			typ, dom = "T", "d1"
		}
		g.AddEntity(fmt.Sprintf("ent%d", i), typ, dom)
	}
	// Upgrade a few entities after the fact (fresh *Entity installed).
	g.AddEntity("ent1", "Movie", "d2")
	g.AddEntity("ent2", "", "d2")
	var live []string
	for i := 0; i < n; i++ {
		obj := fmt.Sprintf("lit%d", rng.Intn(5))
		if rng.Intn(2) == 0 {
			obj = fmt.Sprintf("ent%d", rng.Intn(12))
		}
		id, err := g.AddTriple(Fact{
			Subject:   CanonicalID(fmt.Sprintf("ent%d", rng.Intn(12))),
			Predicate: fmt.Sprintf("p%d", rng.Intn(5)),
			Object:    obj,
			Source:    fmt.Sprintf("s%d", rng.Intn(3)),
			Domain:    "d1",
			Format:    "csv",
			ChunkID:   fmt.Sprintf("doc#c%d", i),
			Weight:    0.25 * float64(1+rng.Intn(4)),
		})
		if err != nil {
			tb.Fatal(err)
		}
		live = append(live, id)
	}
	if withRemovals {
		for i := 0; i < n/4 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			if !g.RemoveTriple(live[j]) {
				tb.Fatalf("remove %s failed", live[j])
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
	return g
}

func encodeGraph(g *Graph) []byte {
	var e wal.Encoder
	g.EncodeTo(&e)
	return append([]byte(nil), e.Bytes()...)
}

// requireGraphsEqual checks the decoded graph against the original through
// the public observables the rest of the system reads.
func requireGraphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	fail := func(what string, g, w any) {
		t.Helper()
		t.Fatalf("%s diverges:\n got  %v\n want %v", what, g, w)
	}
	if got.NumEntities() != want.NumEntities() {
		fail("NumEntities", got.NumEntities(), want.NumEntities())
	}
	if got.NumTriples() != want.NumTriples() {
		fail("NumTriples", got.NumTriples(), want.NumTriples())
	}
	if got.TripleSlots() != want.TripleSlots() {
		fail("TripleSlots", got.TripleSlots(), want.TripleSlots())
	}
	if got.MaxDegree() != want.MaxDegree() {
		fail("MaxDegree", got.MaxDegree(), want.MaxDegree())
	}
	if g, w := got.EntityIDs(), want.EntityIDs(); !reflect.DeepEqual(g, w) {
		fail("EntityIDs", g, w)
	}
	if g, w := got.TripleIDs(), want.TripleIDs(); !reflect.DeepEqual(g, w) {
		fail("TripleIDs", g, w)
	}
	for _, id := range want.EntityIDs() {
		we, _ := want.Entity(id)
		ge, ok := got.Entity(id)
		if !ok || *ge != *we {
			fail("Entity("+id+")", ge, we)
		}
		if g, w := got.Degree(id), want.Degree(id); g != w {
			fail("Degree("+id+")", g, w)
		}
		if g, w := got.Neighbors(id), want.Neighbors(id); !reflect.DeepEqual(g, w) {
			fail("Neighbors("+id+")", g, w)
		}
		if g, w := tripleValues(got, got.TriplesBySubject(id)), tripleValues(want, want.TriplesBySubject(id)); !reflect.DeepEqual(g, w) {
			fail("TriplesBySubject("+id+")", g, w)
		}
		if g, w := tripleValues(got, got.TriplesByObjectEntity(id)), tripleValues(want, want.TriplesByObjectEntity(id)); !reflect.DeepEqual(g, w) {
			fail("TriplesByObjectEntity("+id+")", g, w)
		}
	}
	for _, id := range want.TripleIDs() {
		wt, _ := want.Triple(id)
		gt, ok := got.Triple(id)
		if !ok || tripleView(got, gt) != tripleView(want, wt) {
			fail("Triple("+id+")", gt, wt)
		}
		subj, pred := want.Subject(wt), want.Predicate(wt)
		if g, w := tripleValues(got, got.TriplesByKey(subj, pred)), tripleValues(want, want.TriplesByKey(subj, pred)); !reflect.DeepEqual(g, w) {
			fail("TriplesByKey("+want.Key(wt)+")", g, w)
		}
	}
}

func TestGraphSerializeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n            int
		withRemovals bool
	}{
		{"empty", 0, false},
		{"small", 10, false},
		{"removals", 200, true},
		{"large", 1500, false}, // crosses the 512-row page boundary
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := buildRandomGraph(t, rng, tc.n, tc.withRemovals)
			raw := encodeGraph(g)
			d := wal.NewDecoder(raw)
			got, err := DecodeGraph(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			requireGraphsEqual(t, got, g)
			// The decoded graph re-encodes to the identical bytes — the
			// property the crash-equivalence oracle leans on.
			if !bytes.Equal(encodeGraph(got), raw) {
				t.Fatal("re-encoded bytes differ from original encoding")
			}
			// Handle continuity: the next triple inserted on either side gets
			// the same ID (tombstoned slots are preserved, never compacted).
			idW, err := g.AddTriple(Fact{Subject: CanonicalID("ent0"), Predicate: "pnew", Object: "x"})
			if err != nil {
				t.Fatal(err)
			}
			idG, err := got.AddTriple(Fact{Subject: CanonicalID("ent0"), Predicate: "pnew", Object: "x"})
			if err != nil {
				t.Fatal(err)
			}
			if idW != idG {
				t.Fatalf("post-decode triple ID diverged: %s vs %s", idG, idW)
			}
		})
	}
}

func TestDecodeGraphRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := buildRandomGraph(t, rng, 40, true)
	raw := encodeGraph(g)
	// Truncation at any point must error, never panic or mis-decode: either
	// the decoder latches, or the leftover-byte check in the round-trip
	// harness would catch it (a prefix of a valid stream that happens to
	// decode cleanly cannot happen here because counts are written up front).
	for cut := 0; cut < len(raw); cut++ {
		d := wal.NewDecoder(raw[:cut])
		if dec, err := DecodeGraph(d); err == nil {
			if err := d.Finish(); err == nil {
				t.Fatalf("cut %d: decode of truncated stream succeeded (%d entities)", cut, dec.NumEntities())
			}
		}
	}
}
