package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// This file pins observation-equivalence of the interned columnar core
// against the string-keyed map implementation it replaced: refGraph below is
// the seed implementation (maps of strings, deep Clone), and the property
// tests drive both through identical operation scripts — including
// interleaved clones and removals — comparing every public observable. The
// reference stores every field of a triple, its ID included; the core derives
// the ID, subject, predicate and object entity from the handle, and
// tripleView reads them back for the comparison.

// refTriple is the reference's stored triple: the whole Fact and its ID.
type refTriple struct {
	ID string
	Fact
}

func (t *refTriple) key() string { return t.Subject + "\x00" + t.Predicate }

// tripleView reads a stored triple back in the reference's form, every
// derived field through g.
func tripleView(g *Graph, t *Triple) refTriple {
	return refTriple{ID: t.ID(), Fact: Fact{
		Subject: g.Subject(t), Predicate: g.Predicate(t), Object: t.Object, ObjectEntity: g.ObjectEntity(t),
		Source: t.Source, Domain: g.Domain(t), Format: g.Format(t), ChunkID: t.ChunkID, Weight: t.Weight,
	}}
}

type refGraph struct {
	entities map[string]*Entity
	triples  map[string]*refTriple

	bySubject     map[string][]string
	byObject      map[string][]string
	byKey         map[string][]string
	tripleCounter int
}

func newRefGraph() *refGraph {
	return &refGraph{
		entities:  map[string]*Entity{},
		triples:   map[string]*refTriple{},
		bySubject: map[string][]string{},
		byObject:  map[string][]string{},
		byKey:     map[string][]string{},
	}
}

func (g *refGraph) addEntity(name, typ, domain string) string {
	id := CanonicalID(name)
	if id == "" {
		return ""
	}
	if e, ok := g.entities[id]; ok {
		if e.Type == "" {
			e.Type = typ
		}
		if e.Domain == "" {
			e.Domain = domain
		}
		return id
	}
	g.entities[id] = &Entity{ID: id, Name: name, Type: typ, Domain: domain}
	return id
}

func (g *refGraph) addTriple(f Fact) (string, error) {
	t := refTriple{Fact: f}
	if _, ok := g.entities[t.Subject]; !ok {
		return "", fmt.Errorf("ref: unknown subject entity %q", t.Subject)
	}
	if t.Predicate == "" {
		return "", fmt.Errorf("ref: empty predicate")
	}
	if t.Weight == 0 {
		t.Weight = 1
	}
	g.tripleCounter++
	t.ID = fmt.Sprintf("t%06d", g.tripleCounter)
	if t.ObjectEntity == "" {
		if oid := CanonicalID(t.Object); oid != "" {
			if _, ok := g.entities[oid]; ok {
				t.ObjectEntity = oid
			}
		}
	}
	tc := t
	g.triples[tc.ID] = &tc
	g.bySubject[tc.Subject] = append(g.bySubject[tc.Subject], tc.ID)
	g.byKey[tc.key()] = append(g.byKey[tc.key()], tc.ID)
	if tc.ObjectEntity != "" {
		g.byObject[tc.ObjectEntity] = append(g.byObject[tc.ObjectEntity], tc.ID)
	}
	return tc.ID, nil
}

func (g *refGraph) removeTriple(id string) bool {
	t, ok := g.triples[id]
	if !ok {
		return false
	}
	delete(g.triples, id)
	g.bySubject[t.Subject] = removeID(g.bySubject[t.Subject], id)
	g.byKey[t.key()] = removeID(g.byKey[t.key()], id)
	if t.ObjectEntity != "" {
		g.byObject[t.ObjectEntity] = removeID(g.byObject[t.ObjectEntity], id)
	}
	return true
}

func (g *refGraph) clone() *refGraph {
	ng := newRefGraph()
	ng.tripleCounter = g.tripleCounter
	for id, e := range g.entities {
		ce := *e
		ng.entities[id] = &ce
	}
	for id, t := range g.triples {
		ct := *t
		ng.triples[id] = &ct
	}
	for _, pair := range []struct{ dst, src map[string][]string }{
		{ng.bySubject, g.bySubject}, {ng.byObject, g.byObject},
		{ng.byKey, g.byKey},
	} {
		for k, ids := range pair.src {
			cp := make([]string, len(ids))
			copy(cp, ids)
			pair.dst[k] = cp
		}
	}
	return ng
}

func (g *refGraph) resolve(ids []string) []*refTriple {
	out := make([]*refTriple, 0, len(ids))
	for _, id := range ids {
		if t, ok := g.triples[id]; ok {
			out = append(out, t)
		}
	}
	return out
}

func (g *refGraph) entityIDs() []string {
	ids := make([]string, 0, len(g.entities))
	for id := range g.entities {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (g *refGraph) tripleIDs() []string {
	ids := make([]string, 0, len(g.triples))
	for id := range g.triples {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (g *refGraph) degree(entityID string) int {
	return len(g.bySubject[entityID]) + len(g.byObject[entityID])
}

func (g *refGraph) maxDegree() int {
	max := 0
	for id := range g.entities {
		if d := g.degree(id); d > max {
			max = d
		}
	}
	return max
}

func (g *refGraph) neighbors(entityID string) []string {
	seen := map[string]bool{}
	for _, t := range g.resolve(g.bySubject[entityID]) {
		if t.ObjectEntity != "" && t.ObjectEntity != entityID {
			seen[t.ObjectEntity] = true
		}
	}
	for _, t := range g.resolve(g.byObject[entityID]) {
		if t.Subject != entityID {
			seen[t.Subject] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// tripleValues projects a []*Triple of g to reference values for
// order-sensitive comparison.
func tripleValues(g *Graph, ts []*Triple) []refTriple {
	out := make([]refTriple, len(ts))
	for i, t := range ts {
		out[i] = tripleView(g, t)
	}
	return out
}

// refValues is tripleValues for the reference's triples.
func refValues(ts []*refTriple) []refTriple {
	out := make([]refTriple, len(ts))
	for i, t := range ts {
		out[i] = *t
	}
	return out
}

// requireSameObservables compares every public observable of g against the
// reference oracle.
func requireSameObservables(t *testing.T, label string, g *Graph, r *refGraph) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: %s diverges:\n got  %v\n want %v", label, what, got, want)
	}
	if g.NumEntities() != len(r.entities) {
		fail("NumEntities", g.NumEntities(), len(r.entities))
	}
	if g.NumTriples() != len(r.triples) {
		fail("NumTriples", g.NumTriples(), len(r.triples))
	}
	if got, want := g.EntityIDs(), r.entityIDs(); !reflect.DeepEqual(got, want) {
		fail("EntityIDs", got, want)
	}
	if got, want := g.TripleIDs(), r.tripleIDs(); !reflect.DeepEqual(got, want) {
		fail("TripleIDs", got, want)
	}
	if got, want := g.MaxDegree(), r.maxDegree(); got != want {
		fail("MaxDegree", got, want)
	}
	if got, want := g.ComputeStats(), refStats(r); got != want {
		fail("ComputeStats", got, want)
	}
	for _, id := range r.entityIDs() {
		re := r.entities[id]
		ge, ok := g.Entity(id)
		if !ok || *ge != *re {
			fail("Entity("+id+")", ge, re)
		}
		if got, want := g.Degree(id), r.degree(id); got != want {
			fail("Degree("+id+")", got, want)
		}
		if got, want := g.Neighbors(id), r.neighbors(id); !reflect.DeepEqual(got, want) {
			fail("Neighbors("+id+")", got, want)
		}
		if got, want := tripleValues(g, g.TriplesBySubject(id)), refValues(r.resolve(r.bySubject[id])); !reflect.DeepEqual(got, want) {
			fail("TriplesBySubject("+id+")", got, want)
		}
		if got, want := tripleValues(g, g.TriplesByObjectEntity(id)), refValues(r.resolve(r.byObject[id])); !reflect.DeepEqual(got, want) {
			fail("TriplesByObjectEntity("+id+")", got, want)
		}
	}
	for _, id := range r.tripleIDs() {
		rt := r.triples[id]
		gt, ok := g.Triple(id)
		if !ok || tripleView(g, gt) != *rt {
			fail("Triple("+id+")", gt, rt)
		}
		if got, want := g.Key(gt), rt.key(); got != want {
			fail("Key("+id+")", got, want)
		}
		if got, want := tripleValues(g, g.TriplesByKey(rt.Subject, rt.Predicate)), refValues(r.resolve(r.byKey[rt.key()])); !reflect.DeepEqual(got, want) {
			fail("TriplesByKey("+rt.key()+")", got, want)
		}
		if got, want := tripleValues(g, g.TriplesByRawKey(rt.key())), refValues(r.resolve(r.byKey[rt.key()])); !reflect.DeepEqual(got, want) {
			fail("TriplesByRawKey("+rt.key()+")", got, want)
		}
		if got, want := g.TwoHopPathSupport(gt), refTwoHop(r, rt); got != want {
			fail("TwoHopPathSupport("+id+")", got, want)
		}
	}
}

func refStats(r *refGraph) Stats {
	sources := map[string]bool{}
	domains := map[string]bool{}
	for _, t := range r.triples {
		if t.Source != "" {
			sources[t.Source] = true
		}
		if t.Domain != "" {
			domains[t.Domain] = true
		}
	}
	return Stats{Entities: len(r.entities), Triples: len(r.triples), Sources: len(sources), Domains: len(domains)}
}

// refTwoHop is the seed TwoHopPathSupport over the reference structures.
func refTwoHop(r *refGraph, t *refTriple) float64 {
	if t.ObjectEntity != "" {
		neigh := r.neighbors(t.Subject)
		if len(neigh) <= 1 {
			return 0
		}
		objNeigh := map[string]bool{}
		for _, n := range r.neighbors(t.ObjectEntity) {
			objNeigh[n] = true
		}
		hits := 0
		for _, n := range neigh {
			if n != t.ObjectEntity && objNeigh[n] {
				hits++
			}
		}
		return float64(hits) / float64(len(neigh)-1)
	}
	siblings := r.resolve(r.byKey[t.key()])
	if len(siblings) <= 1 {
		return 0
	}
	agree := 0
	norm := CanonicalID(t.Object)
	for _, s := range siblings {
		if s.ID != t.ID && CanonicalID(s.Object) == norm {
			agree++
		}
	}
	return float64(agree) / float64(len(siblings)-1)
}

// applyRandomOp applies one random operation to both implementations and
// asserts identical results. Objects sometimes collide with entity names so
// object-entity linking triggers; removals hit random live triples.
func applyRandomOp(t *testing.T, rng *rand.Rand, g *Graph, r *refGraph, live *[]string) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 2: // add entity (possibly a re-add with upgrade)
		name := fmt.Sprintf("Entity %d", rng.Intn(oracleEntities))
		typ, domain := "", ""
		if rng.Intn(2) == 0 {
			typ = fmt.Sprintf("T%d", rng.Intn(3))
		}
		if rng.Intn(2) == 0 {
			domain = fmt.Sprintf("d%d", rng.Intn(3))
		}
		a := g.AddEntity(name, typ, domain)
		b := r.addEntity(name, typ, domain)
		if a != b {
			t.Fatalf("AddEntity diverges: %q vs %q", a, b)
		}
	case op < 3 && len(*live) > 0: // remove
		victim := (*live)[rng.Intn(len(*live))]
		ga := g.RemoveTriple(victim)
		rb := r.removeTriple(victim)
		if ga != rb {
			t.Fatalf("RemoveTriple(%s) diverges: %v vs %v", victim, ga, rb)
		}
		*live = removeID(*live, victim)
	default: // add triple
		subj := CanonicalID(fmt.Sprintf("Entity %d", rng.Intn(oracleEntities)))
		obj := fmt.Sprintf(literalSpellings[rng.Intn(len(literalSpellings))], rng.Intn(8))
		if rng.Intn(3) == 0 {
			obj = fmt.Sprintf("Entity %d", rng.Intn(oracleEntities)) // may link an entity
		}
		tr := Fact{
			Subject:   subj,
			Predicate: fmt.Sprintf("p%d", rng.Intn(4)),
			Object:    obj,
			Source:    fmt.Sprintf("src%d", rng.Intn(3)),
			Domain:    fmt.Sprintf("d%d", rng.Intn(2)),
			Format:    []string{"csv", "", "kg"}[rng.Intn(3)],
			Weight:    float64(rng.Intn(5)) / 4, // exercises the 0→1 default
		}
		ga, ea := g.AddTriple(tr)
		rb, eb := r.addTriple(tr)
		if ga != rb || (ea == nil) != (eb == nil) {
			t.Fatalf("AddTriple diverges: (%q,%v) vs (%q,%v)", ga, ea, rb, eb)
		}
		if ea == nil {
			*live = append(*live, ga)
		}
	}
}

// literalSpellings are the op scripts' literal objects: spellings of one value
// that differ in case, punctuation and spacing, so refTwoHop's CanonicalID
// comparison sees equal normal forms from unequal strings, plus a near miss
// that joins the tokens and must not agree.
var literalSpellings = []string{"value %d", "Value %d", "value-%d", "  VALUE %d!", "value%d"}

// oracleEntities is the entity universe of the op scripts: more than one
// posting page (postingPageSize rows), so page privatization and the fork's
// per-page clipping both run.
const oracleEntities = 80

// TestInternedCoreMatchesReference drives random op scripts — entity
// upserts, triple adds with object linking, removals — through the interned
// core and the seed reference in lockstep, comparing all observables, over a
// tree of copy-on-write clones. Most ops land on the newest clone of the
// newest node, the ingest commit pattern, which appends to shared posting
// lists in place under the lineage claim; the rest land on an older node — a
// parent written to after it was cloned, a second clone of one parent, a
// clone taken from a node whose earlier clone has already appended behind it
// (the discarded-commit pattern) — and must fork. After every clone every
// node ever created must still match its own reference: nobody's writes show
// through shared pages or shared list capacity.
func TestInternedCoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			type node struct {
				g    *Graph
				r    *refGraph
				live []string
			}
			nodes := []*node{{g: New(), r: newRefGraph()}}
			checkAll := func(label string) {
				for i, nd := range nodes {
					requireSameObservables(t, fmt.Sprintf("%s node %d", label, i), nd.g, nd.r)
				}
			}
			for step := 0; step < 600; step++ {
				nd := nodes[len(nodes)-1]
				if rng.Intn(8) == 0 {
					nd = nodes[rng.Intn(len(nodes))]
				}
				applyRandomOp(t, rng, nd.g, nd.r, &nd.live)
				if step%50 == 49 {
					from := nodes[len(nodes)-1]
					if rng.Intn(3) == 0 {
						from = nodes[rng.Intn(len(nodes))]
					}
					nodes = append(nodes, &node{g: from.g.Clone(), r: from.r.clone(), live: append([]string(nil), from.live...)})
					checkAll(fmt.Sprintf("step%d", step))
				}
			}
			checkAll("final")
		})
	}
}

// TestTripleIDRoundTrip pins the allocation-free ID codec: formatting matches
// the seed's fmt.Sprintf("t%06d") exactly, parsing inverts it, and
// non-canonical spellings are rejected rather than aliased.
func TestTripleIDRoundTrip(t *testing.T) {
	for _, n := range []int32{1, 2, 9, 10, 999, 999999, 1000000, 12345678} {
		id := TripleID(n - 1)
		want := fmt.Sprintf("t%06d", n)
		if id != want {
			t.Fatalf("TripleID(%d) = %q, want %q", n-1, id, want)
		}
		h, ok := ParseTripleID(id)
		if !ok || h != n-1 {
			t.Fatalf("ParseTripleID(%q) = (%d,%v), want (%d,true)", id, h, ok, n-1)
		}
	}
	for _, bad := range []string{"", "t", "t00001", "x000001", "t0000001", "t00000a", "t000000", "t01000000"} {
		if _, ok := ParseTripleID(bad); ok {
			t.Fatalf("ParseTripleID(%q) accepted a non-canonical ID", bad)
		}
	}
}

// TestCompareTripleIDs holds the handle comparison to the string comparison
// of the IDs the handles stand for — on random pairs and on handles either
// side of the point (999,999 → "t1000000") where string order stops being
// numeric order — and requires it to allocate nothing.
func TestCompareTripleIDs(t *testing.T) {
	check := func(a, b int32) {
		t.Helper()
		if got, want := CompareTripleIDs(a, b), strings.Compare(TripleID(a), TripleID(b)); got != want {
			t.Fatalf("CompareTripleIDs(%d, %d) = %d, comparing %s with %s gives %d",
				a, b, got, TripleID(a), TripleID(b), want)
		}
	}
	edges := []int32{0, 1, 8, 9, 99_998, 99_999, 999_997, 999_998, 999_999, 1_000_000, 1_000_001,
		9_999_998, 9_999_999, 10_000_000, 1<<30 - 1}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		check(rng.Int31n(2_000_000), rng.Int31n(2_000_000))
		check(rng.Int31n(1<<30), rng.Int31n(1<<30))
	}
	var sink int
	if n := testing.AllocsPerRun(100, func() { sink += CompareTripleIDs(999_999, 1_000_000) }); n != 0 {
		t.Fatalf("CompareTripleIDs allocates %.0f objects per call, want 0", n)
	}
}
