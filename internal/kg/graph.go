// Package kg implements the in-memory knowledge graph substrate: entities,
// relations and provenance-carrying triples with adjacency indexes, traversal
// and subgraph extraction. The multi-source line graph (internal/linegraph)
// and the confidence machinery (internal/confidence) are built on top of it.
//
// Internally the graph is an interned, columnar store: entity IDs,
// predicates and (domain, format) pairs are interned to dense int32 handles
// once at insertion, triples live in copy-on-write paged columns addressed by
// handle (a triple's handle is derivable from its "tNNNNNN" ID without any
// map, and its ID, subject, predicate and object entity are derived from the
// handle and its columns rather than stored), and the adjacency indexes are
// []int32 posting lists, the (subject, predicate) key index among them,
// filed under its subject. Clone is a copy-on-write snapshot that shares
// immutable pages and copies only what a later mutation touches, so an
// ingest commit's columns and posting lists cost O(delta) instead of
// O(corpus). The string-keyed API
// below is a thin compat layer over the handles; hot paths (linegraph,
// confidence) use the handle-level API in handles.go directly.
package kg

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"multirag/internal/lineage"
	"multirag/internal/textutil"
)

// Entity is a node in the knowledge graph.
type Entity struct {
	ID     string // canonical identifier (standardised name)
	Name   string // preferred surface form
	Type   string // coarse type ("Movie", "Flight", "Entity", ...)
	Domain string // domain of the originating data (d in Definition 1)
}

// Fact is a triple as a caller hands it to AddTriple: a (subject, predicate,
// object) edge with provenance. Objects are literal values; ObjectEntity may
// pre-set the canonical ID of the entity an object names, and left empty,
// AddTriple links the object when its canonical form is a known entity.
type Fact struct {
	Subject      string // canonical entity ID
	Predicate    string
	Object       string // literal surface form
	ObjectEntity string // canonical entity ID if the object is an entity, else ""
	Source       string // originating data source (provenance)
	Domain       string
	Format       string  // original storage format ("csv","json","xml","kg","text")
	ChunkID      string  // retrieval chunk the triple was extracted from
	Weight       float64 // extraction confidence in [0,1]
}

// FactView is the part of a Fact the graph only resolves against what it
// holds, as byte views: the form a replay decodes them in (InsertView).
type FactView struct {
	Subject, Predicate, ObjectEntity, Domain, Format []byte
}

// Triple is a stored triple: the fields of its Fact that the graph cannot
// derive, its handle, and the handle of its (domain, format) pair. Its ID,
// subject, predicate and object entity are read through the graph (ID,
// Graph.Subject, Graph.Predicate, Graph.ObjectEntity) from the handle and the
// columns that index it, and its domain and format (Graph.Domain,
// Graph.Format) from the pair, which every triple of a file shares: every
// engine copy keeps each of them once instead of once per triple.
//
// Triples are stored by value in their column's pages, and a *Triple the
// graph hands out is the address of its row. A triple's identity is its
// handle, not that address: a clone that copies the page hands out another
// address for the same triple. The row stays as it is for as long as the
// triple is live in that graph; RemoveTriple on the same graph marks it
// removed (live), and a clone's removal copies the page first.
type Triple struct {
	Object  string  // literal surface form
	Source  string  // originating data source (provenance)
	ChunkID string  // retrieval chunk the triple was extracted from
	Weight  float64 // extraction confidence in [0,1]
	h       int32
	prov    int32
}

// provenance is the (domain, format) pair of the triples of one source file.
type provenance struct{ domain, format string }

// removed is the prov of a removed triple's slot: the mark every reader of the
// triple column checks, where a column of pointers held nil.
const removed = -1

// live reports whether the slot holds a triple that was not removed.
func (t *Triple) live() bool { return t.prov != removed }

// Handle returns the triple's handle: its insertion index in the graph.
func (t *Triple) Handle() int32 { return t.h }

// TripleID returns the ID of the triple at handle h: "t" and its 1-based
// insertion number in at least six digits ("t%06d" without the fmt
// machinery). ParseTripleID inverts it.
func TripleID(h int32) string {
	var buf [12]byte
	return string(AppendTripleID(buf[:0], h))
}

// Subject returns the canonical ID of t's subject entity.
func (g *Graph) Subject(t *Triple) string { return g.ents.get(g.tSubj.get(t.h)).ID }

// Predicate returns t's predicate.
func (g *Graph) Predicate(t *Triple) string { return g.preds.get(g.tPred.get(t.h)) }

// ObjectEntity returns the canonical ID of the entity t's object links to, or
// "" when the object is a literal.
func (g *Graph) ObjectEntity(t *Triple) string {
	if o := g.tObj.get(t.h); o >= 0 {
		return g.ents.get(o).ID
	}
	return ""
}

// Domain returns the domain of the data t was extracted from.
func (g *Graph) Domain(t *Triple) string { return g.provs.get(t.prov).domain }

// Format returns the storage format t was extracted from ("csv", "json",
// "xml", "kg", "text").
func (g *Graph) Format(t *Triple) string { return g.provs.get(t.prov).format }

// Key returns the homologous-data key of t: its subject and predicate joined
// by a NUL byte. Two triples with equal keys answer the same question about
// the same entity and are candidates for the same homologous subgraph.
func (g *Graph) Key(t *Triple) string { return g.Subject(t) + "\x00" + g.Predicate(t) }

// CanonicalID derives the stable entity ID for a surface form. A name already
// in canonical form is its own ID: the result then aliases name.
func CanonicalID(name string) string { return textutil.NormalizeValue(name) }

// Graph is the mutable in-memory knowledge graph. It is not safe for
// concurrent mutation; the serving engine mutates only fresh Clones and
// publishes them as immutable snapshots, which any number of readers may
// query concurrently (including concurrently with a Clone call).
type Graph struct {
	ents      col[*Entity] // entity handle → entity (replaced, never mutated, on upgrade)
	entLookup cowStr       // canonical entity ID → entity handle

	preds      col[string] // predicate handle → predicate
	predLookup cowStr      // predicate → predicate handle

	provs      col[provenance] // provenance handle → (domain, format)
	provLookup cowStr          // len(domain) ":" domain format → provenance handle

	trs   col[Triple] // triple handle → triple, marked when removed (live)
	tSubj col[int32]  // triple handle → subject entity handle
	tObj  col[int32]  // triple handle → object entity handle, -1 for literals
	tPred col[int32]  // triple handle → predicate handle

	// byKey is the (subject, predicate) key index, filed under the subject:
	// subject entity handle → (predicate handle, triple handles) keys. It is
	// also the index by subject: a subject's row holds every triple it is the
	// subject of, grouped by predicate.
	byKey    rowCol[[]keyEntry]
	byObject rowCol[[]int32] // entity handle → handles of triples linking it as object

	// lin counts the triple slots claimed on the storage this graph shares
	// with its clones: the posting lists' spare capacity and the tail pages
	// and page tables of the four triple-indexed columns (see claimSlot).
	lin lineage.Token

	liveTriples int
	// maxDeg is the largest entity degree and atMax the number of entities
	// with it. Linking a triple only raises degrees, so it moves them in
	// O(1); a removal that lowers the last entity at maxDeg recomputes them
	// (rescanDegrees). MaxDegree is a plain read for concurrent queries.
	maxDeg, atMax int
	// isolatedKeys and groupedKeys count the (subject, predicate) keys with
	// exactly one live triple and with two or more — SG′'s isolated points
	// and homologous nodes. Like the largest degree they move in O(1) as a
	// triple is linked or removed, so KeyCounts is a plain read.
	isolatedKeys, groupedKeys int
}

// New returns an empty graph.
func New() *Graph { return &Graph{lin: lineage.New(0)} }

// AppendTripleID appends the ID of the triple at handle h to dst: TripleID
// without the allocation, for a caller that hashes or compares the ID.
func AppendTripleID(dst []byte, h int32) []byte {
	n := h + 1
	var digits [10]byte
	i := len(digits)
	for n > 0 || len(digits)-i < 6 {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return append(append(dst, 't'), digits[i:]...)
}

// CompareTripleIDs orders the triples at handles a and b as their IDs compare
// as strings, without building either: the order of every sorted ID list the
// graph and the line graph hand out. Above handle 999,998 it is not numeric
// order ("t1000000" sorts before "t999999").
func CompareTripleIDs(a, b int32) int {
	var ba, bb [12]byte
	return bytes.Compare(AppendTripleID(ba[:0], a), AppendTripleID(bb[:0], b))
}

// ParseTripleID inverts TripleID: it returns the handle of the triple
// with the given ID. It accepts exactly the canonical form ("t" + ≥6 digits,
// no excess zero padding) so non-canonical spellings of a number cannot alias
// an existing triple.
func ParseTripleID(id string) (int32, bool) {
	if len(id) < 7 || id[0] != 't' {
		return 0, false
	}
	if len(id) > 7 && id[1] == '0' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, false
		}
	}
	if n == 0 {
		return 0, false
	}
	return int32(n - 1), true
}

// AddEntity inserts (or upgrades) an entity and returns its canonical ID, the
// stored string. Re-adding an entity keeps the first non-empty Type/Domain
// seen. An upgrade installs a fresh *Entity rather than mutating the stored
// one, so entities reachable from published snapshots never change under a
// reader. The name's canonical form is built in a stack buffer and looked up
// as bytes, so re-adding a known entity allocates nothing.
func (g *Graph) AddEntity(name, typ, domain string) string { return addEntity(g, name, typ, domain) }

// AddEntityView is AddEntity over byte views of its fields, as a replay
// decodes them: a known entity costs no string, and a new one copies only what
// it stores. It is kept out of line so that its callers' buffers stay on their
// stacks: inlined into another package, the call to the generic body it wraps
// is taken to leak them.
//
//go:noinline
func (g *Graph) AddEntityView(name, typ, domain []byte) string {
	return addEntity(g, name, typ, domain)
}

func addEntity[S text](g *Graph, name, typ, domain S) string {
	var buf [64]byte
	idb := textutil.AppendNormalizeValue(buf[:0], string(name))
	if len(idb) == 0 {
		return ""
	}
	if h, ok := lookup(&g.entLookup, idb); ok {
		e := g.ents.get(h)
		if (e.Type == "" && len(typ) > 0) || (e.Domain == "" && len(domain) > 0) {
			ne := *e
			if ne.Type == "" {
				ne.Type = string(typ)
			}
			if ne.Domain == "" {
				ne.Domain = string(domain)
			}
			g.ents.set(h, &ne)
		}
		return e.ID
	}
	// A new entity stores an exact-size ID, and its name is that ID when the
	// name was already canonical: a name that is a view into a whole file's
	// text is not stored to pin it. Any other name is stored as the caller
	// passed it, a view copied. A type or domain equal to the previous
	// entity's is that entity's string.
	id := string(idb)
	e := &Entity{ID: id, Name: id}
	if id != string(name) {
		e.Name = string(name)
	}
	if n := g.ents.len(); n > 0 {
		prev := g.ents.get(int32(n - 1))
		e.Type, e.Domain = storedText(prev.Type, typ), storedText(prev.Domain, domain)
	} else {
		e.Type, e.Domain = string(typ), string(domain)
	}
	g.entLookup.put(id, g.ents.append(e))
	return id
}

// storedText returns s as a string the graph keeps: held, a string the graph
// already holds, when the two are equal, and s otherwise (a copy of a view).
func storedText[S text](held string, s S) string {
	if held == string(s) {
		return held
	}
	return string(s)
}

// internProv returns the handle of the (domain, format) pair, adding it if
// new. The triples of one file share a pair, so the previous slot's pair is
// tried first, and the lookup key is built in a stack buffer.
func internProv[S text](g *Graph, domain, format S) int32 {
	if n := g.trs.len(); n > 0 {
		if prev := g.trs.ref(int32(n - 1)); prev.live() {
			if p := g.provs.get(prev.prov); p.domain == string(domain) && p.format == string(format) {
				return prev.prov
			}
		}
	}
	var buf [64]byte
	key := strconv.AppendInt(buf[:0], int64(len(domain)), 10) // len(domain) ":" domain format: unambiguous for any two strings
	key = append(append(append(key, ':'), domain...), format...)
	if h, ok := lookup(&g.provLookup, key); ok {
		return h
	}
	h := g.provs.append(provenance{string(domain), string(format)})
	g.provLookup.put(string(key), h)
	return h
}

func internPred[S text](g *Graph, p S) int32 {
	if h, ok := lookup(&g.predLookup, p); ok {
		return h
	}
	ps := string(p)
	h := g.preds.append(ps)
	g.predLookup.put(ps, h)
	return h
}

// maxTripleSlots is the most triple slots a graph holds: handles are int32,
// and the ID of the last one, TripleID(h) = "t" and h+1, must not wrap.
const maxTripleSlots = 1<<31 - 1

// AddTriple inserts a triple (InsertTriple) and returns its ID.
func (g *Graph) AddTriple(f Fact) (string, error) {
	h, err := g.InsertTriple(f)
	if err != nil {
		return "", err
	}
	return TripleID(h), nil
}

// InsertTriple inserts a triple. The subject entity must already exist; the
// object is linked as an entity when its canonical form is a known entity (a
// pre-set ObjectEntity is honoured only when it names a known entity, and
// dropped otherwise). It returns the triple's handle, or an error once the
// graph holds maxTripleSlots slots. A literal object's canonical form is
// built in a stack buffer and looked up as bytes, so the probe allocates only
// for a form over 64 bytes.
func (g *Graph) InsertTriple(f Fact) (int32, error) {
	return insertTriple(g, f.Subject, f.Predicate, f.ObjectEntity, f.Domain, f.Format,
		Triple{Object: f.Object, Source: f.Source, ChunkID: f.ChunkID, Weight: f.Weight})
}

// InsertView is InsertTriple for the fact whose looked-up fields are f and
// whose stored ones are t's Object, Source, ChunkID and Weight, with the same
// validation. The subject, object entity, predicate and (domain, format) pair
// are resolved from their bytes, and a string is made only for a predicate or
// pair the graph does not hold yet. Nothing of f is kept.
func (g *Graph) InsertView(f *FactView, t Triple) (int32, error) {
	return insertTriple(g, f.Subject, f.Predicate, f.ObjectEntity, f.Domain, f.Format, t)
}

func insertTriple[S text](g *Graph, subject, predicate, objectEntity, domain, format S, t Triple) (int32, error) {
	subjH, ok := lookup(&g.entLookup, subject)
	if !ok {
		return 0, fmt.Errorf("kg: unknown subject entity %q", string(subject))
	}
	if len(predicate) == 0 {
		return 0, fmt.Errorf("kg: triple with empty predicate (subject %q)", string(subject))
	}
	if t.Weight == 0 {
		t.Weight = 1
	}
	objH := int32(-1)
	if len(objectEntity) > 0 {
		if h, ok := lookup(&g.entLookup, objectEntity); ok {
			objH = h
		}
	} else {
		var buf [64]byte
		if oid := textutil.AppendNormalizeValue(buf[:0], t.Object); len(oid) > 0 {
			if h, ok := lookup(&g.entLookup, oid); ok {
				objH = h
			}
		}
	}
	if g.trs.len() >= maxTripleSlots {
		return 0, fmt.Errorf("kg: the graph holds %d triple slots, the most a handle can address", g.trs.len())
	}
	claimed := g.claimSlot()
	t.h, t.prov = int32(g.trs.len()), internProv(g, domain, format)
	g.trs.push(t, claimed)
	g.link(t.h, subjH, objH, internPred(g, predicate), claimed)
	return t.h, nil
}

// link fills the handle columns and posting lists of the triple just appended
// at h and updates the largest degree and the key counts; claimed is
// claimSlot's verdict on the slot. AddTriple and DecodeGraph insert through
// here.
func (g *Graph) link(h, subjH, objH, predH int32, claimed bool) {
	g.tSubj.push(subjH, claimed)
	g.tObj.push(objH, claimed)
	g.tPred.push(predH, claimed)
	n := appendKey(&g.byKey, subjH, predH, h)
	g.countKey(n-1, -1)
	g.countKey(n, 1)
	if objH >= 0 {
		appendPosting(&g.byObject, objH, h)
	}
	g.liveTriples++
	g.raiseDegree(g.degreeH(subjH)) // a self-loop raised it by 2
	if objH >= 0 && objH != subjH {
		g.raiseDegree(g.degreeH(objH))
	}
}

// claimSlot applies the claim-or-fork rule (package lineage) to the next
// triple slot, before AddTriple fills it, and reports whether the claim
// held. Clones share the byKey and byObject lists with their spare capacity,
// and the tail pages and page tables of the four triple-indexed columns (trs,
// tSubj, tObj, tPred). A successful claim lets this graph append the slot's
// handle to the lists, and its row to the columns' tail pages and a fresh
// page to their tables (col.push), in place, behind the len every older
// snapshot reads to. A fork makes every row of both row columns clip its
// lists when it is next written (rowCol.forked); the columns copy their
// shared table and tail page once, as every commit did before the rule.
// Removal needs no claim: it replaces a list with a fresh copy and marks a
// row only in a page it owns.
func (g *Graph) claimSlot() bool {
	if g.lin.Claim(g.trs.len(), 1) {
		return true
	}
	g.byKey.forked()
	g.byObject.forked()
	return false
}

// raiseDegree folds an entity's raised degree d into the largest degree.
func (g *Graph) raiseDegree(d int) {
	if d > g.maxDeg {
		g.maxDeg, g.atMax = d, 1
	} else if d == g.maxDeg {
		g.atMax++
	}
}

// lowerDegree takes an entity whose degree a removal lowered by `by` to d out
// of the count at the largest degree, if it was there.
func (g *Graph) lowerDegree(d, by int) {
	if d+by == g.maxDeg {
		g.atMax--
	}
}

// rescanDegrees recomputes the largest degree and the count at it from every
// entity's row. Only RemoveTriple calls it, when the last entity at the
// largest degree lost a triple.
func (g *Graph) rescanDegrees() {
	g.maxDeg, g.atMax = 0, 0
	for h := int32(0); int(h) < g.ents.len(); h++ {
		if d := g.degreeH(h); d > 0 {
			g.raiseDegree(d)
		}
	}
}

// RemoveTriple deletes a triple by ID; it is used by the perturbation
// machinery (relation masking). Removing an unknown ID is a no-op returning
// false. The triple's handle is never reused, keeping IDs unique and monotone
// across the graph's lifetime.
func (g *Graph) RemoveTriple(id string) bool {
	h, ok := ParseTripleID(id)
	if !ok || int(h) >= g.trs.len() {
		return false
	}
	if !g.trs.ref(h).live() {
		return false
	}
	subjH, objH, predH := g.tSubj.get(h), g.tObj.get(h), g.tPred.get(h)
	g.trs.set(h, Triple{h: h, prov: removed})
	g.liveTriples--
	if objH >= 0 {
		lst, _, _ := g.byObject.edit(objH)
		*lst = removeHandle(*lst, h)
	}
	n := removeKey(&g.byKey, subjH, predH, h)
	g.countKey(n, -1)
	g.countKey(n-1, 1)
	if objH == subjH {
		g.lowerDegree(g.degreeH(subjH), 2)
	} else {
		g.lowerDegree(g.degreeH(subjH), 1)
		if objH >= 0 {
			g.lowerDegree(g.degreeH(objH), 1)
		}
	}
	if g.atMax == 0 {
		g.rescanDegrees()
	}
	return true
}

// countKey folds a key with n live triples into the key counts (sign 1) or
// takes it out of them (sign -1).
func (g *Graph) countKey(n, sign int) {
	switch {
	case n == 1:
		g.isolatedKeys += sign
	case n >= 2:
		g.groupedKeys += sign
	}
}

// removeHandle returns lst without the first occurrence of h, never mutating
// the input (the old list may still be visible through a shared snapshot).
func removeHandle(lst []int32, h int32) []int32 {
	for i, v := range lst {
		if v == h {
			out := make([]int32, 0, len(lst)-1)
			out = append(out, lst[:i]...)
			return append(out, lst[i+1:]...)
		}
	}
	return lst
}

// Clone returns a copy-on-write snapshot of the graph: both sides share every
// column page, page table and row column root, every posting list, keys array
// and interner base, and the lineage token. Whichever side mutates first
// copies only the pages, leaves, tables and keys arrays it touches; its
// posting lists and the triple columns' tail pages and page tables it extends
// in place if it wins the claim for the next triple slot, and reallocates or
// copies otherwise (claimSlot). Cloning costs O(1) for every column, and a
// copy of each interner's tail, the entries written since it last flattened
// (amortised over the inserts that wrote them), instead of the deep O(corpus)
// copy it replaces. Triple handles (and therefore IDs) stay unique and
// monotone across clone generations. The write path of the serving engine
// clones the current graph before applying a batch, leaving published
// snapshots immutable; mutating either side never changes any observable of
// the other.
func (g *Graph) Clone() *Graph {
	return &Graph{
		ents:       g.ents.clone(),
		entLookup:  g.entLookup.clone(),
		preds:      g.preds.clone(),
		predLookup: g.predLookup.clone(),
		provs:      g.provs.clone(),
		provLookup: g.provLookup.clone(),
		trs:        g.trs.clone(),
		tSubj:      g.tSubj.clone(),
		tObj:       g.tObj.clone(),
		tPred:      g.tPred.clone(),
		byKey:      g.byKey.clone(),
		byObject:   g.byObject.clone(),
		lin:        g.lin,

		liveTriples: g.liveTriples,
		maxDeg:      g.maxDeg,
		atMax:       g.atMax,

		isolatedKeys: g.isolatedKeys,
		groupedKeys:  g.groupedKeys,
	}
}

// Entity returns the entity with the given canonical ID.
func (g *Graph) Entity(id string) (*Entity, bool) {
	h, ok := g.entLookup.get(id)
	if !ok {
		return nil, false
	}
	return g.ents.get(h), true
}

// Triple returns the triple with the given ID.
func (g *Graph) Triple(id string) (*Triple, bool) {
	h, ok := ParseTripleID(id)
	if !ok {
		return nil, false
	}
	t := g.TripleAt(h)
	return t, t != nil
}

// NumEntities returns the entity count.
func (g *Graph) NumEntities() int { return g.ents.len() }

// NumTriples returns the triple (relation instance) count.
func (g *Graph) NumTriples() int { return g.liveTriples }

// TripleIDs returns all triple IDs, sorted.
func (g *Graph) TripleIDs() []string {
	ids := make([]string, 0, g.liveTriples)
	g.ForEachTriple(func(h int32, _ *Triple) { ids = append(ids, TripleID(h)) })
	sort.Strings(ids)
	return ids
}

// TriplesByKey returns the triples sharing a (subject, predicate) key — the
// raw material of a homologous subgraph.
func (g *Graph) TriplesByKey(subjectID, predicate string) []*Triple {
	return g.resolve(g.keyPosting(subjectID, predicate))
}

// keyPosting returns the handles of the live triples sharing a (subject,
// predicate) key, nil when either is unknown. Read-only.
func (g *Graph) keyPosting(subjectID, predicate string) []int32 {
	subjH, ok := g.entLookup.get(subjectID)
	if !ok {
		return nil
	}
	predH, ok := g.predLookup.get(predicate)
	if !ok {
		return nil
	}
	return g.KeyPosting(subjH, predH)
}

func (g *Graph) resolve(handles []int32) []*Triple {
	out := make([]*Triple, 0, len(handles))
	for _, h := range handles {
		if t := g.TripleAt(h); t != nil {
			out = append(out, t)
		}
	}
	return out
}

func (g *Graph) degreeH(entH int32) int {
	d := len(g.byObject.get(entH))
	for _, e := range g.byKey.get(entH) {
		d += len(e.lst)
	}
	return d
}

// Degree returns the number of triples incident on an entity (as subject or
// object).
func (g *Graph) Degree(entityID string) int {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return 0
	}
	return g.degreeH(h)
}

// KeyCounts returns how many (subject, predicate) keys have exactly one live
// triple (isolated) and how many have two or more (grouped): the isolated
// points and homologous nodes of the line graph over this graph. Both are
// maintained as triples are linked and removed, so reading them is O(1).
func (g *Graph) KeyCounts() (isolated, grouped int) { return g.isolatedKeys, g.groupedKeys }

// MaxDegree returns the maximum entity degree in the graph (0 when empty).
// It is maintained as triples are linked and removed, so reading it is a
// plain load and safe under concurrent readers.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// neighborHandles returns the handles of entities one hop from entH, sorted
// by handle and deduplicated.
func (g *Graph) neighborHandles(entH int32) []int32 {
	var hs []int32
	for _, e := range g.byKey.get(entH) {
		for _, th := range e.lst {
			if o := g.tObj.get(th); o >= 0 && o != entH {
				hs = append(hs, o)
			}
		}
	}
	for _, th := range g.byObject.get(entH) {
		if s := g.tSubj.get(th); s != entH {
			hs = append(hs, s)
		}
	}
	sortCompactHandles(&hs)
	return hs
}

// sortCompactHandles sorts hs and removes duplicates in place.
func sortCompactHandles(hs *[]int32) {
	s := *hs
	if len(s) < 2 {
		return
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	*hs = out
}
