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
// then hub more on Entity 0, the hub subject, under predicate "hub": the hub
// key, whose posting list is the long one.
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

// tailPages returns the first row of the page holding the last triple slot in
// each triple-indexed column: the page a claimant appends into in place,
// unless the slots fill it exactly.
func tailPages(g *Graph) [4]any {
	p := (g.trs.len() - 1) >> pageBits
	return [4]any{&g.trs.pages[p][0], &g.tSubj.pages[p][0], &g.tObj.pages[p][0], &g.tPred.pages[p][0]}
}

// TestCloneLineagePaths pins which side of the claim-or-fork rule each case
// takes, and that none of them leaks: the first clone of the newest graph to
// add a triple appends to the shared key lists and the triple columns' shared
// tail pages in place, through their shared page tables (same backing array,
// same page, same table, same token); a second clone of one parent — which is
// also what the next commit is after a clone that appended was discarded —
// and a parent written to after it was cloned fork, copying the lists, the
// tables and the tail pages; a fork stays in force for key rows the forked
// graph has not rewritten yet, across its own clones; removal needs no claim,
// and on a shared page it marks a copy.
func TestCloneLineagePaths(t *testing.T) {
	parent := lineageGraph(t, 80, 3, 1, 66) // Entity 0 and Entity 70 in different row pages, a long hub key on Entity 0
	hub, _ := parent.PredicateHandle("hub")
	hubBase := func(g *Graph) *int32 { return &g.KeyPosting(0, hub)[0] }
	e70, p0 := int32(70), int32(0)
	keyBase := func(g *Graph) *int32 { return &g.KeyPosting(e70, p0)[0] }
	table := func(g *Graph) *[]Triple { return &g.trs.pages[0] }
	if e70>>rowPageBits == 0 {
		t.Fatal("test needs Entity 70 outside Entity 0's row page")
	}
	if lst := parent.KeyPosting(e70, p0); cap(lst) == len(lst) {
		t.Fatal("test needs spare capacity behind Entity 70's key list")
	}
	if lst := parent.KeyPosting(0, hub); cap(lst) == len(lst) {
		t.Fatal("test needs spare capacity behind the parent's hub key list")
	}
	parentTail := tailPages(parent)
	first := parent.Clone()
	addLiteral(t, first, 0, "hub", "first")
	addLiteral(t, first, 70, "p0", "first")
	if first.lin != parent.lin || hubBase(first) != hubBase(parent) {
		t.Fatal("first clone of the newest graph must append in place on the shared lineage")
	}
	if tailPages(first) != parentTail {
		t.Fatal("first clone of the newest graph must append its triples into the shared tail pages")
	}
	if keyBase(first) != keyBase(parent) || table(first) != table(parent) {
		t.Fatal("first clone of the newest graph must append to the shared key list through the shared page table")
	}
	firstObs := observe(first)

	second := parent.Clone()
	addLiteral(t, second, 0, "hub", "second")
	if second.lin == parent.lin || hubBase(second) == hubBase(parent) {
		t.Fatal("second clone of one parent must fork: fresh token, reallocated list")
	}
	for i, p := range tailPages(second) {
		if p == parentTail[i] {
			t.Fatalf("second clone of one parent must copy triple column %d's tail page", i)
		}
	}
	if table(second) == table(parent) {
		t.Fatal("second clone of one parent must copy the page table it writes")
	}
	if got := second.TripleAt(int32(parent.trs.len())).Object; got != "second" {
		t.Fatalf("second clone's slot %d reads %q, want its own triple", parent.trs.len(), got)
	}
	secondObs := observe(second)

	// second rewrote Entity 0's row only. Its clone appends in place on the
	// fork's own token, yet Entity 70's key list, in another row page, still
	// has first's triple sitting in its spare capacity.
	third := second.Clone()
	addLiteral(t, third, 0, "hub", "third")
	addLiteral(t, third, 70, "p0", "third")
	if third.lin != second.lin || hubBase(third) != hubBase(second) {
		t.Fatal("a fork's clone must continue in place on the fork's lineage")
	}
	if keyBase(third) == keyBase(first) {
		t.Fatal("a fork's clone must clip the key lists of a row the fork has not rewritten")
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
	// The removed triple's page is shared with first and parent: the mark
	// goes into fourth's copy, and the triple stays live and unchanged, at
	// the same address, in both.
	fourth := first.Clone()
	victim := fourth.TriplesBySubject(CanonicalID("Entity 70"))[0].ID()
	held, _ := first.Triple(victim)
	heldParent, _ := parent.Triple(victim)
	want := *held
	if !fourth.RemoveTriple(victim) {
		t.Fatal("RemoveTriple failed")
	}
	if _, ok := fourth.Triple(victim); ok {
		t.Fatal("removed triple still live on the graph that removed it")
	}
	for name, g := range map[string]*Graph{"first": first, "parent": parent} {
		got, ok := g.Triple(victim)
		if !ok || *got != want {
			t.Fatalf("removal on a descendant changed %s's triple: %+v, live %v, want %+v", name, got, ok, want)
		}
	}
	if *held != want || *heldParent != want {
		t.Fatal("removal on a descendant wrote the page its ancestors read")
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
}

// TestClonePageTableAtPageBoundary: a claimant that fills its parent's last
// page appends the next page's pointer into the page table it shares with
// the parent, in place; a second clone of the parent forks and must copy the
// table before appending its own page, so that each reads its own triple in
// the slot they both fill.
func TestClonePageTableAtPageBoundary(t *testing.T) {
	parent := lineageGraph(t, 2, 0, 1, 0)
	for parent.trs.len() < 3*pageSize {
		addLiteral(t, parent, 1, "p0", "fill")
	}
	if tbl := parent.trs.pages; cap(tbl) == len(tbl) {
		t.Fatal("test needs spare capacity in the parent's page table")
	}
	slot := int32(parent.trs.len())
	first := parent.Clone()
	addLiteral(t, first, 1, "p0", "first")
	if &first.trs.pages[0] != &parent.trs.pages[0] {
		t.Fatal("the claimant must append its page into the shared page table")
	}
	second := parent.Clone()
	addLiteral(t, second, 1, "p0", "second")
	if &second.trs.pages[0] == &parent.trs.pages[0] {
		t.Fatal("a forked clone must copy the page table before appending to it")
	}
	for want, g := range map[string]*Graph{"first": first, "second": second} {
		if got := g.TripleAt(slot).Object; got != want {
			t.Fatalf("%s reads %q in slot %d, want its own triple", want, got, slot)
		}
	}
	if parent.TripleAt(slot) != nil || len(parent.trs.pages) != 3 {
		t.Fatal("the parent sees a page its clones appended")
	}
}

// TestCloneChainAppendsInPlace is the cost half of the rule: along a linear
// chain of clone → add → publish steps the hub subject's key list keeps its
// backing array while capacity lasts, so what a step allocates does not
// depend on how long the lists it appends to are. Two graphs of equal size,
// one with every triple under Entity 0's one key and one with 16 triples
// under it, must allocate the same per step.
func TestCloneChainAppendsInPlace(t *testing.T) {
	const steps = 64
	perStep := func(g *Graph, pred string) uint64 {
		predH, _ := g.PredicateHandle(pred)
		cur, inPlace, hadRoom := g, 0, 0
		bytes := make([]uint64, 0, steps)
		var before, after runtime.MemStats
		for i := 0; i < steps; i++ {
			lst := cur.KeyPosting(0, predH)
			runtime.ReadMemStats(&before)
			next := cur.Clone()
			addLiteral(t, next, 0, pred, "chain")
			runtime.ReadMemStats(&after)
			bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
			if cap(lst) > len(lst) {
				hadRoom++
				if &next.KeyPosting(0, predH)[0] == &lst[0] {
					inPlace++
				}
			}
			if next.lin != cur.lin {
				t.Fatalf("step %d left the lineage", i)
			}
			cur = next
		}
		if hadRoom < steps-8 || inPlace != hadRoom {
			t.Fatalf("%d of %d steps had capacity behind the %s key list, %d appended in place", hadRoom, steps, pred, inPlace)
		}
		sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
		return bytes[steps/2]
	}
	// Both graphs hold 4,096 triples, and Entity 0 one key: "hub" in the
	// first, "p0" in the second (256 is a multiple of 64).
	long := perStep(lineageGraph(t, 256, 0, 1, 4096), "hub")
	short := perStep(lineageGraph(t, 256, 16, 64, 0), "p0")
	if float64(long) > 1.25*float64(short) {
		t.Fatalf("a step allocates %d B behind a 4096-handle list, %d B behind a 16-handle one", long, short)
	}
}

// postingDump is a deep copy of what the handle-level readers of one
// generation see: the posting lists and every triple slot, its row and its
// handle columns.
type postingDump struct {
	subject [][]int32
	key     map[[2]int32][]int32
	triples []refTriple
}

func dumpPostings(g *Graph) postingDump {
	d := postingDump{key: map[[2]int32][]int32{}}
	for h := int32(0); int(h) < g.NumEntities(); h++ {
		d.subject = append(d.subject, append([]int32(nil), g.SubjectPosting(h)...))
	}
	g.ForEachKeyPosting(func(s, p int32, lst []int32) {
		d.key[[2]int32{s, p}] = append([]int32(nil), lst...)
	})
	for h := int32(0); h < g.TripleSlots(); h++ {
		if t := g.TripleAt(h); t != nil {
			d.triples = append(d.triples, tripleView(g, t))
		} else {
			d.triples = append(d.triples, refTriple{})
		}
	}
	return d
}

// TestInPlaceAppendsUnderConcurrentReads is the race-detector half: readers
// keep walking SubjectPosting, KeyPosting and every triple slot of
// generations captured along the way, the hub subject's long list among them,
// while the committer clones the newest graph and appends behind it in place,
// into the posting lists and the triple columns' shared tail pages, a few
// hundred commits in a row, each one to the hub. Every reader must keep
// seeing exactly what its generation held when it was captured, and
// `go test -race` must see no conflicting access: readers stop at their own
// len, the committer writes past it. Between the readers, replicas are seeded
// as clones of the newest graph and take their first writes only after the
// committer has claimed past them, so each forks and copies the tail pages
// while the committer keeps appending into them: a copy must read only the
// rows below its own len, hold exactly its generation's triples and its own,
// and leave its generation unchanged.
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
		var replica *Graph
		if c%(commits/readers) == commits/readers/2 {
			replica = cur.Clone() // a replica seeded beside the committer
		}
		next := cur.Clone()
		// A commit that starts inside a tail page and fills no more than it
		// must leave that page where it was.
		var tail [4]any
		room := cur.trs.len()&pageMask != 0 && cur.trs.len()&pageMask <= pageSize-4
		if room {
			tail = tailPages(cur)
		}
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
		if room && tailPages(next) != tail {
			t.Fatalf("commit %d copied a tail page it had the claim to append into", c)
		}
		if replica != nil {
			wg.Add(1)
			go replicaApplies(t, &wg, replica, cur, dumpPostings(cur), c)
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

// replicaApplies adds a few triples to replica, a clone of base taken before
// the committer claimed the slots behind base, and checks what it reads then:
// base's triples below base's len, its own above, and base unchanged.
func replicaApplies(t *testing.T, wg *sync.WaitGroup, replica, base *Graph, want postingDump, gen int) {
	defer wg.Done()
	n := base.trs.len()
	obj := fmt.Sprintf("replica%d", gen)
	for i := 0; i < 8; i++ {
		if _, err := replica.AddTriple(Fact{Subject: CanonicalID(fmt.Sprintf("Entity %d", i*17%150)), Predicate: "p0", Object: obj, Source: "rep"}); err != nil {
			t.Error(err)
			return
		}
		runtime.Gosched()
	}
	if replica.lin == base.lin {
		t.Errorf("replica of generation %d appended on the committer's lineage", gen)
	}
	got := dumpPostings(replica)
	if !reflect.DeepEqual(got.triples[:n], want.triples) {
		t.Errorf("replica of generation %d reads other triples below its base's len", gen)
	}
	for _, tr := range got.triples[n:] {
		if tr.Object != obj {
			t.Errorf("replica of generation %d reads %q above its base's len, want its own %q", gen, tr.Object, obj)
		}
	}
	if !reflect.DeepEqual(dumpPostings(base), want) {
		t.Errorf("generation %d changed under its replica", gen)
	}
}
