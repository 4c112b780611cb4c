package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// observation is a deep, self-contained dump of every graph observable; it
// shares no storage with the graph, so it cannot change when the graph (or a
// clone sharing its pages) does.
type observation struct {
	entities  []Entity
	triples   []refTriple
	bySubject map[string][]refTriple
	byObject  map[string][]refTriple
	byKey     map[string][]refTriple
	neighbors map[string][]string
	degrees   map[string]int
	maxDegree int
	stats     Stats
}

func observe(g *Graph) observation {
	o := observation{
		bySubject: map[string][]refTriple{},
		byObject:  map[string][]refTriple{},
		byKey:     map[string][]refTriple{},
		neighbors: map[string][]string{},
		degrees:   map[string]int{},
		maxDegree: g.MaxDegree(),
		stats:     g.ComputeStats(),
	}
	for _, id := range g.EntityIDs() {
		e, _ := g.Entity(id)
		o.entities = append(o.entities, *e)
		o.bySubject[id] = tripleValues(g, g.TriplesBySubject(id))
		o.byObject[id] = tripleValues(g, g.TriplesByObjectEntity(id))
		o.neighbors[id] = g.Neighbors(id)
		o.degrees[id] = g.Degree(id)
	}
	for _, id := range g.TripleIDs() {
		t, _ := g.Triple(id)
		o.triples = append(o.triples, tripleView(g, t))
		o.byKey[g.Key(t)] = tripleValues(g, g.TriplesByKey(g.Subject(t), g.Predicate(t)))
	}
	return o
}

func mutateHeavily(tb testing.TB, g *Graph, rng *rand.Rand, rounds int) {
	tb.Helper()
	var live []string
	g.ForEachTriple(func(_ int32, t *Triple) { live = append(live, t.ID()) })
	for i := 0; i < rounds; i++ {
		switch rng.Intn(6) {
		case 0: // new entity
			g.AddEntity(fmt.Sprintf("Fresh %d", rng.Intn(64)), "T", "d")
		case 1: // upgrade an existing entity's empty fields
			g.AddEntity(fmt.Sprintf("Entity %d", rng.Intn(oracleEntities)), fmt.Sprintf("T%d", rng.Intn(4)), "d9")
		case 2: // removal (forces page copies deep inside shared prefixes)
			if len(live) > 0 {
				victim := live[rng.Intn(len(live))]
				g.RemoveTriple(victim)
				live = removeID(live, victim)
			}
		default: // append triples, extending shared tails and posting lists
			subj := g.AddEntity(fmt.Sprintf("Entity %d", rng.Intn(oracleEntities)), "", "")
			id, err := g.AddTriple(Fact{
				Subject:   subj,
				Predicate: fmt.Sprintf("p%d", rng.Intn(4)),
				Object:    fmt.Sprintf("Entity %d", rng.Intn(oracleEntities)),
				Source:    "mut",
			})
			if err != nil {
				tb.Fatal(err)
			}
			live = append(live, id)
		}
	}
}

func seedGraph(tb testing.TB, rng *rand.Rand, n int) *Graph {
	tb.Helper()
	g := New()
	var live []string
	for i := 0; i < n; i++ {
		applyRandomOpNoRef(tb, rng, g, &live)
	}
	return g
}

func applyRandomOpNoRef(tb testing.TB, rng *rand.Rand, g *Graph, live *[]string) {
	tb.Helper()
	subjName := fmt.Sprintf("Entity %d", rng.Intn(oracleEntities))
	g.AddEntity(subjName, "", "")
	obj := fmt.Sprintf("value %d", rng.Intn(8))
	if rng.Intn(3) == 0 {
		obj = fmt.Sprintf("Entity %d", rng.Intn(oracleEntities))
	}
	id, err := g.AddTriple(Fact{
		Subject:   CanonicalID(subjName),
		Predicate: fmt.Sprintf("p%d", rng.Intn(4)),
		Object:    obj,
		Source:    fmt.Sprintf("src%d", rng.Intn(3)),
		Weight:    0.5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	*live = append(*live, id)
}

// requireObservation asserts a graph still matches a previously captured
// observation dump.
func requireObservation(t *testing.T, label string, g *Graph, want observation) {
	t.Helper()
	got := observe(g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot observables changed after clone mutation\n got  %+v\n want %+v", label, got, want)
	}
}

// TestCloneSnapshotIsolation is the aliasing property test: mutating a
// post-Clone graph (new entities, entity upgrades, triple appends into shared
// posting tails, removals that rewrite shared pages) never changes any
// observable of the parent snapshot — in either direction, and across a chain
// of generations.
func TestCloneSnapshotIsolation(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := seedGraph(t, rng, 200)

			// Chain of generations: freeze, clone, mutate the child.
			type frozen struct {
				g   *Graph
				obs observation
			}
			var gens []frozen
			cur := g
			for gen := 0; gen < 4; gen++ {
				gens = append(gens, frozen{cur, observe(cur)})
				next := cur.Clone()
				mutateHeavily(t, next, rng, 150)
				cur = next
			}
			for i, fr := range gens {
				requireObservation(t, fmt.Sprintf("generation %d", i), fr.g, fr.obs)
			}

			// The reverse direction: mutating the parent after a clone must
			// not change the clone (perturbation harness pattern: the old
			// graph keeps being edited while an earlier clone is still held).
			parent := seedGraph(t, rng, 100)
			child := parent.Clone()
			childObs := observe(child)
			mutateHeavily(t, parent, rng, 150)
			requireObservation(t, "clone after parent mutation", child, childObs)
		})
	}
}

// TestCloneIsolationUnderConcurrentReads runs the same aliasing property
// with reader goroutines hammering the frozen parent while the clone is
// mutated — the serving engine's exact access pattern (queries on the
// published snapshot during an ingest commit). Run under -race this checks
// that copy-on-write never writes into memory a reader can load.
func TestCloneIsolationUnderConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parent := seedGraph(t, rng, 400)
	want := observe(parent)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Read-only traffic over the parent's shared structures.
				for _, id := range parent.EntityIDs() {
					parent.TriplesBySubject(id)
					parent.Neighbors(id)
					parent.Degree(id)
				}
				parent.MaxDegree()
				parent.TripleIDs()
			}
		}(w)
	}

	// Clone (twice, to also exercise Clone-while-read) and mutate heavily
	// while the readers run.
	mrng := rand.New(rand.NewSource(7))
	c1 := parent.Clone()
	mutateHeavily(t, c1, mrng, 300)
	c2 := parent.Clone()
	mutateHeavily(t, c2, mrng, 300)
	close(stop)
	wg.Wait()

	requireObservation(t, "parent after concurrent clone mutations", parent, want)
}

// lineageGraph returns a graph of nEnts entities ("Entity i") carrying
// perEnt literal triples each, predicate i%preds of "p0".."p<preds-1>", and
// then hub more on Entity 0, the hub subject, whose bySubject list is the
// long one.
func lineageGraph(tb testing.TB, nEnts, perEnt, preds, hub int) *Graph {
	tb.Helper()
	g := New()
	for i := 0; i < nEnts; i++ {
		g.AddEntity(fmt.Sprintf("Entity %d", i), "T", "d")
	}
	for k := 0; k < perEnt; k++ {
		for i := 0; i < nEnts; i++ {
			addLiteral(tb, g, i, fmt.Sprintf("p%d", (k*nEnts+i)%preds), fmt.Sprintf("v%d", k))
		}
	}
	for k := 0; k < hub; k++ {
		addLiteral(tb, g, 0, "hub", fmt.Sprintf("h%d", k))
	}
	return g
}

func addLiteral(tb testing.TB, g *Graph, ent int, pred, obj string) string {
	tb.Helper()
	id, err := g.AddTriple(Fact{Subject: CanonicalID(fmt.Sprintf("Entity %d", ent)), Predicate: pred, Object: obj, Source: "lin"})
	if err != nil {
		tb.Fatal(err)
	}
	return id
}

// TestCloneLineagePaths pins which side of the claim-or-fork rule each case
// takes, and that none of them leaks: the first clone of the newest graph to
// add a triple appends to the shared posting lists in place (same backing
// array, same token); a second clone of one parent — which is also what the
// next commit is after a clone that appended was discarded — and a parent
// written to after it was cloned fork; a fork stays in force for pages the
// forked graph has not rewritten yet, across its own clones; removal needs no
// claim.
func TestCloneLineagePaths(t *testing.T) {
	parent := lineageGraph(t, 80, 3, 1, 64) // two posting pages of subjects, one long hub list in page 0
	hubBase := func(g *Graph) *int32 { return &g.bySubject.get(0)[0] }
	if lst := parent.bySubject.get(0); cap(lst) == len(lst) {
		t.Fatal("test needs spare capacity behind the parent's hub list")
	}
	first := parent.Clone()
	addLiteral(t, first, 0, "hub", "first")
	addLiteral(t, first, 70, "p0", "first")
	if first.lin != parent.lin || hubBase(first) != hubBase(parent) {
		t.Fatal("first clone of the newest graph must append in place on the shared lineage")
	}
	firstObs := observe(first)

	second := parent.Clone()
	addLiteral(t, second, 0, "hub", "second")
	if second.lin == parent.lin || hubBase(second) == hubBase(parent) {
		t.Fatal("second clone of one parent must fork: fresh token, reallocated list")
	}
	secondObs := observe(second)

	// second rewrote subject page 0 only. Its clone appends in place on the
	// fork's own token, yet Entity 70's list, in page 1, still has first's
	// triple sitting in its spare capacity.
	third := second.Clone()
	addLiteral(t, third, 0, "hub", "third")
	addLiteral(t, third, 70, "p0", "third")
	if third.lin != second.lin || hubBase(third) != hubBase(second) {
		t.Fatal("a fork's clone must continue in place on the fork's lineage")
	}
	requireObservation(t, "first after the fork's clone wrote the same subject", first, firstObs)
	requireObservation(t, "second after its clone", second, secondObs)

	stale := parent.lin
	addLiteral(t, parent, 70, "p0", "late")
	if parent.lin == stale {
		t.Fatal("parent adding a triple behind a claimed slot must fork")
	}
	requireObservation(t, "first after the parent wrote", first, firstObs)

	// Removal replaces a list and claims nothing; the add after it still
	// finds the slot free and appends (to the replaced list) on the lineage.
	fourth := first.Clone()
	victim := fourth.TriplesBySubject(CanonicalID("Entity 70"))[0].ID()
	if !fourth.RemoveTriple(victim) {
		t.Fatal("RemoveTriple failed")
	}
	kept := addLiteral(t, fourth, 70, "p0", "fourth")
	if fourth.lin != first.lin {
		t.Fatal("RemoveTriple must not cost the clone its claim")
	}
	var got []string
	for _, tr := range fourth.TriplesBySubject(CanonicalID("Entity 70")) {
		got = append(got, tr.Object)
	}
	if want := []string{"v1", "v2", "first", "fourth"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("remove-then-add on a clone: Entity 70 holds %v (last %s), want %v", got, kept, want)
	}
	requireObservation(t, "first after remove+add on its clone", first, firstObs)
	requireObservation(t, "second", second, secondObs)
	if _, ok := parent.Triple(victim); !ok {
		t.Fatal("removal on a descendant removed the parent's triple")
	}
}

// TestCloneChainAppendsInPlace is the cost half of the rule: along a linear
// chain of clone → add → publish steps the hub subject's list keeps its
// backing array while capacity lasts, so what a step allocates does not
// depend on how long the lists it appends to are. Two graphs of equal size,
// one with every triple on the hub subject and one with 16 triples on it,
// must allocate the same per step.
func TestCloneChainAppendsInPlace(t *testing.T) {
	const steps = 64
	perStep := func(g *Graph) uint64 {
		cur, inPlace, hadRoom := g, 0, 0
		bytes := make([]uint64, 0, steps)
		var before, after runtime.MemStats
		for i := 0; i < steps; i++ {
			lst := cur.bySubject.get(0)
			runtime.ReadMemStats(&before)
			next := cur.Clone()
			addLiteral(t, next, 0, "chain", "chain")
			runtime.ReadMemStats(&after)
			bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
			if cap(lst) > len(lst) {
				hadRoom++
				if &next.bySubject.get(0)[0] == &lst[0] {
					inPlace++
				}
			}
			if next.lin != cur.lin {
				t.Fatalf("step %d left the lineage", i)
			}
			cur = next
		}
		if hadRoom < steps-8 || inPlace != hadRoom {
			t.Fatalf("%d of %d steps had capacity behind the hub list, %d appended in place", hadRoom, steps, inPlace)
		}
		sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
		return bytes[steps/2]
	}
	// Entity 1 carries 4,200 more triples in both graphs, so the degree
	// histogram every clone copies is as long in both and the hub never
	// reaches its top.
	heavy := func(g *Graph) *Graph {
		for k := 0; k < 4200; k++ {
			addLiteral(t, g, 1, "heavy", fmt.Sprintf("x%d", k))
		}
		return g
	}
	long := perStep(heavy(lineageGraph(t, 256, 0, 1, 4096)))
	short := perStep(heavy(lineageGraph(t, 256, 16, 64, 0)))
	if float64(long) > 1.25*float64(short) {
		t.Fatalf("a step allocates %d B behind a 4096-handle list, %d B behind a 16-handle one", long, short)
	}
}

// postingDump is a deep copy of what the handle-level readers of one
// generation see.
type postingDump struct {
	subject [][]int32
	key     map[[2]int32][]int32
}

func dumpPostings(g *Graph) postingDump {
	d := postingDump{key: map[[2]int32][]int32{}}
	for h := int32(0); h < g.EntitySlots(); h++ {
		d.subject = append(d.subject, append([]int32(nil), g.SubjectPosting(h)...))
	}
	g.ForEachKeyPosting(func(s, p int32, lst []int32) {
		d.key[[2]int32{s, p}] = append([]int32(nil), lst...)
	})
	return d
}

// TestInPlaceAppendsUnderConcurrentReads is the race-detector half: readers
// keep walking SubjectPosting and KeyPosting of generations captured along
// the way, the hub subject's long list among them, while the committer
// clones the newest graph and appends behind it in place, a few hundred
// commits in a row, each one to the hub. Every
// reader must keep seeing exactly what its generation held when it was
// captured, and `go test -race` must see no conflicting access: readers stop
// at their own len, the committer writes past it.
func TestInPlaceAppendsUnderConcurrentReads(t *testing.T) {
	const (
		commits = 240
		readers = 6
	)
	cur := lineageGraph(t, 150, 4, 3, 100)
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		walks atomic.Int64
	)
	for c := 0; c < commits; c++ {
		if c%(commits/readers) == 0 {
			snap, want := cur, dumpPostings(cur)
			wg.Add(1)
			go func(gen int) {
				defer wg.Done()
				for !stop.Load() {
					if got := dumpPostings(snap); !reflect.DeepEqual(got, want) {
						t.Errorf("generation %d changed under its reader", gen)
						return
					}
					walks.Add(1)
				}
			}(c)
		}
		next := cur.Clone()
		for i := 0; i < 4; i++ {
			ent := (c*7 + i*31) % 150
			if i == 0 {
				ent = 0 // the hub
			}
			addLiteral(t, next, ent, fmt.Sprintf("p%d", i%3), fmt.Sprintf("c%d", c))
		}
		if next.lin != cur.lin {
			t.Fatalf("commit %d left the lineage", c)
		}
		cur = next
		// One CPU is common here: wait until some reader finished a walk since
		// this commit, so walks and appends really interleave.
		for seen := walks.Load(); walks.Load() == seen && !t.Failed(); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if got, want := cur.NumTriples(), 150*4+100+4*commits; got != want {
		t.Fatalf("committer lost triples: %d, want %d", got, want)
	}
}
