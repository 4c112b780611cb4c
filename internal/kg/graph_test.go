package kg

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func buildMovieGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddEntity("Heat", "Movie", "movies")
	g.AddEntity("Michael Mann", "Person", "movies")
	g.AddEntity("Inception", "Movie", "movies")
	g.AddEntity("Christopher Nolan", "Person", "movies")
	add := func(subj, pred, obj, src string) {
		t.Helper()
		if _, err := g.AddTriple(Fact{
			Subject: CanonicalID(subj), Predicate: pred, Object: obj,
			Source: src, Domain: "movies", Weight: 0.9,
		}); err != nil {
			t.Fatalf("AddTriple(%s,%s,%s): %v", subj, pred, obj, err)
		}
	}
	add("Heat", "director", "Michael Mann", "imdb")
	add("Heat", "director", "Michael Mann", "tmdb")
	add("Heat", "year", "1995", "imdb")
	add("Inception", "director", "Christopher Nolan", "imdb")
	add("Inception", "year", "2010", "wiki")
	return g
}

func TestAddEntityIdempotent(t *testing.T) {
	g := New()
	a := g.AddEntity("The Matrix", "Movie", "movies")
	b := g.AddEntity("the matrix", "", "")
	if a != b {
		t.Fatalf("case-variant entities must share a canonical ID: %q vs %q", a, b)
	}
	e, _ := g.Entity(a)
	if e.Type != "Movie" {
		t.Fatalf("first type must win, got %q", e.Type)
	}
	if g.NumEntities() != 1 {
		t.Fatalf("entities = %d", g.NumEntities())
	}
	if g.AddEntity("", "", "") != "" {
		t.Fatal("empty name must not create an entity")
	}
}

func TestAddTripleValidation(t *testing.T) {
	g := New()
	if _, err := g.AddTriple(Fact{Subject: "ghost", Predicate: "p", Object: "o"}); err == nil {
		t.Fatal("unknown subject must be rejected")
	}
	g.AddEntity("X", "", "")
	if _, err := g.AddTriple(Fact{Subject: "x", Predicate: "", Object: "o"}); err == nil {
		t.Fatal("empty predicate must be rejected")
	}
}

// TestAddTripleRefusesPastLastHandle: once the graph holds the most triple
// slots an int32 handle addresses, AddTriple is an error that leaves the
// graph as it was, instead of a handle past the last one (whose ID, h+1,
// wraps negative). The column's length is set directly: 2^31-1 real triples
// would not fit in a test.
func TestAddTripleRefusesPastLastHandle(t *testing.T) {
	g := New()
	g.AddEntity("CA981", "Flight", "flights")
	if _, err := g.AddTriple(Fact{Subject: "ca981", Predicate: "status", Object: "Delayed"}); err != nil {
		t.Fatal(err)
	}
	g.trs.n = maxTripleSlots
	before := g.NumTriples()
	if id, err := g.AddTriple(Fact{Subject: "ca981", Predicate: "gate", Object: "G1"}); err == nil {
		t.Fatalf("AddTriple past the last handle returned %q", id)
	}
	if g.trs.len() != maxTripleSlots || g.NumTriples() != before {
		t.Fatalf("a refused AddTriple changed the graph: %d slots, %d triples", g.trs.len(), g.NumTriples())
	}
}

func TestObjectEntityLinking(t *testing.T) {
	g := buildMovieGraph(t)
	ts := g.TriplesByKey(CanonicalID("Heat"), "director")
	if len(ts) != 2 {
		t.Fatalf("homologous key lookup = %d triples", len(ts))
	}
	if g.ObjectEntity(ts[0]) != CanonicalID("Michael Mann") {
		t.Fatalf("object entity not linked: %+v", ts[0])
	}
	back := g.TriplesByObjectEntity(CanonicalID("Michael Mann"))
	if len(back) != 2 {
		t.Fatalf("reverse index = %d", len(back))
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := buildMovieGraph(t)
	n := g.Neighbors(CanonicalID("Heat"))
	if !reflect.DeepEqual(n, []string{CanonicalID("Michael Mann")}) {
		t.Fatalf("Neighbors(Heat) = %v", n)
	}
	if d := g.Degree(CanonicalID("Heat")); d != 3 {
		t.Fatalf("Degree(Heat) = %d, want 3", d)
	}
	if g.MaxDegree() < 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestRemoveTriple(t *testing.T) {
	g := buildMovieGraph(t)
	ids := g.TripleIDs()
	before := g.NumTriples()
	if !g.RemoveTriple(ids[0]) {
		t.Fatal("existing triple must be removable")
	}
	if g.RemoveTriple(ids[0]) {
		t.Fatal("double removal must return false")
	}
	if g.NumTriples() != before-1 {
		t.Fatalf("triples = %d, want %d", g.NumTriples(), before-1)
	}
	for _, tid := range g.TripleIDs() {
		tr, ok := g.Triple(tid)
		if !ok {
			t.Fatalf("dangling id %s", tid)
		}
		found := false
		for _, s := range g.TriplesBySubject(g.Subject(tr)) {
			if s.ID() == tid {
				found = true
			}
		}
		if !found {
			t.Fatalf("index lost triple %s", tid)
		}
	}
}

func TestTwoHopPathSupportLiteralAgreement(t *testing.T) {
	g := New()
	g.AddEntity("F1", "Flight", "flights")
	add := func(obj string) *Triple {
		id, err := g.AddTriple(Fact{Subject: "f1", Predicate: "status", Object: obj})
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := g.Triple(id)
		return tr
	}
	a := add("Delayed")
	add("delayed!")
	add("  DELAYED")
	b := add("On Time")
	add("on-time")
	add("OnTime") // one token, "ontime": not a spelling of "on time"
	lone := add("cancelled")
	if !g.RemoveTriple(add("delayed").ID()) {
		t.Fatal("RemoveTriple failed")
	}
	// Seven live triples, six siblings each; the removed one is neither a
	// sibling nor a vote.
	for _, c := range []struct {
		tr   *Triple
		want float64
	}{{a, 2.0 / 6}, {b, 1.0 / 6}, {lone, 0}} {
		if got := g.TwoHopPathSupport(c.tr); got != c.want {
			t.Fatalf("support of %q = %v, want %v", c.tr.Object, got, c.want)
		}
	}
}

// TestTwoHopPathSupportAllocFree pins the literal branch at zero allocations:
// MCC calls it once per member of a group, so any per-sibling allocation
// makes a group cost O(members²).
func TestTwoHopPathSupportAllocFree(t *testing.T) {
	g := New()
	g.AddEntity("F1", "Flight", "flights")
	var first *Triple
	for i, obj := range []string{"Delayed", "delayed", "On Time", "on-time", "  DELAYED!", "Cancelled", "on time", "Boarding"} {
		id, err := g.AddTriple(Fact{Subject: "f1", Predicate: "status", Object: obj})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, _ = g.Triple(id)
		}
	}
	if got := g.TwoHopPathSupport(first); got != 2.0/7 {
		t.Fatalf("support = %v, want 2/7", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.TwoHopPathSupport(first) }); allocs != 0 {
		t.Fatalf("TwoHopPathSupport on an 8-sibling literal key: %.0f allocs per call, want 0", allocs)
	}
}

func TestComputeStats(t *testing.T) {
	g := buildMovieGraph(t)
	st := g.ComputeStats()
	if st.Entities != 4 || st.Triples != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Sources != 3 {
		t.Fatalf("sources = %d, want 3 (imdb,tmdb,wiki)", st.Sources)
	}
}

// removeID drops the first occurrence of id from ids (test helper; the
// production code works on int32 handle lists, see removeHandle).
func removeID(ids []string, id string) []string {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Property: after arbitrary add/remove interleavings, every index entry
// resolves to a live triple and counts agree.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		g := New()
		for i := 0; i < 5; i++ {
			g.AddEntity(fmt.Sprintf("e%d", i), "T", "d")
		}
		var live []string
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				subj := fmt.Sprintf("e%d", op%5)
				id, err := g.AddTriple(Fact{
					Subject:   subj,
					Predicate: fmt.Sprintf("p%d", op%4),
					Object:    fmt.Sprintf("v%d", op%7),
				})
				if err != nil {
					return false
				}
				live = append(live, id)
			} else {
				victim := live[int(op)%len(live)]
				g.RemoveTriple(victim)
				live = removeID(live, victim)
			}
		}
		if g.NumTriples() != len(live) {
			return false
		}
		sort.Strings(live)
		got := g.TripleIDs()
		if len(got) != len(live) {
			return false
		}
		for i := range got {
			if got[i] != live[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// within reports whether s's bytes lie inside buf's.
func within(s, buf string) bool {
	if s == "" {
		return false
	}
	p, base := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	return p >= base && p < base+uintptr(len(buf))
}

// TestAddEntityStoresExactCopies: CanonicalID returns a name already in
// canonical form as is, so a new entity's stored ID and name must be copied
// out of the caller's string — a view into a whole file's text would pin the
// file. A repeated add returns the stored ID.
func TestAddEntityStoresExactCopies(t *testing.T) {
	file := strings.Repeat("x", 4096) + " ca981 | status | delayed"
	name := file[4097:4102]
	g := New()
	id := g.AddEntity(name, "Flight", "flights")
	e, ok := g.Entity("ca981")
	if id != "ca981" || !ok {
		t.Fatalf("AddEntity(%q) = %q, entity found %v", name, id, ok)
	}
	for _, s := range []string{id, e.ID, e.Name} {
		if within(s, file) {
			t.Fatalf("stored string %q aliases the input buffer", s)
		}
	}
	if again := g.AddEntity(file[4097:4102], "", ""); unsafe.StringData(again) != unsafe.StringData(e.ID) {
		t.Fatal("re-adding an entity must return its stored ID")
	}
}

// TestProvenancePairs: triples share one interned (domain, format) pair per
// distinct pair, whatever bytes either string holds — pairs whose
// concatenations are equal stay apart — and a clone's new pairs do not show in
// its parent.
func TestProvenancePairs(t *testing.T) {
	g := New()
	g.AddEntity("x", "", "")
	pairs := [][2]string{{"ab", "c"}, {"a", "bc"}, {"1:a", "b"}, {"1:", "ab"}, {"ab", "c"}, {"", ""}, {"a\x00", "b"}, {"a", "\x00b"}}
	add := func(g *Graph, p [2]string) *Triple {
		id, err := g.AddTriple(Fact{Subject: "x", Predicate: "p", Object: "o", Domain: p[0], Format: p[1]})
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := g.Triple(id)
		return tr
	}
	var ts []*Triple
	for _, p := range pairs {
		ts = append(ts, add(g, p))
	}
	clone := g.Clone()
	fresh := add(clone, [2]string{"new", "pair"})
	for i, p := range pairs {
		for _, gr := range []*Graph{g, clone} {
			if d, f := gr.Domain(ts[i]), gr.Format(ts[i]); d != p[0] || f != p[1] {
				t.Fatalf("triple %d reads (%q, %q), want (%q, %q)", i, d, f, p[0], p[1])
			}
		}
	}
	if ts[0].prov != ts[4].prov || g.provs.len() != len(pairs)-1 {
		t.Fatalf("%d pairs interned for %d distinct", g.provs.len(), len(pairs)-1)
	}
	if clone.Domain(fresh) != "new" || g.provs.len() != len(pairs)-1 {
		t.Fatal("a clone's new pair must not show in its parent")
	}
}
