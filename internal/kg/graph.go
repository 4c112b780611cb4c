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
// []int32 posting lists. Clone is a copy-on-write snapshot that shares
// immutable pages and copies only what a later mutation touches, so an
// ingest commit costs O(delta) instead of O(corpus). The string-keyed API
// below is a thin compat layer over the handles; hot paths (linegraph,
// confidence) use the handle-level API in handles.go directly.
package kg

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

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

// Triple is a stored triple: the fields of its Fact that the graph cannot
// derive, its handle, and the handle of its (domain, format) pair. Its ID,
// subject, predicate and object entity are read through the graph (ID,
// Graph.Subject, Graph.Predicate, Graph.ObjectEntity) from the handle and the
// columns that index it, and its domain and format (Graph.Domain,
// Graph.Format) from the pair, which every triple of a file shares: every
// engine copy keeps each of them once instead of once per triple.
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

// Handle returns the triple's handle: its insertion index in the graph.
func (t *Triple) Handle() int32 { return t.h }

// ID returns the triple's ID. It is formatted on each call.
func (t *Triple) ID() string { return TripleID(t.h) }

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

	trs   col[*Triple] // triple handle → triple, nil when removed
	tSubj col[int32]   // triple handle → subject entity handle
	tObj  col[int32]   // triple handle → object entity handle, -1 for literals
	tPred col[int32]   // triple handle → predicate handle

	bySubject postingCol     // entity handle → handles of triples with that subject
	byObject  postingCol     // entity handle → handles of triples linking it as object
	byKey     cowKeyPostings // packed (subject, predicate) handles → triple handles

	// lin counts the triple slots claimed on the posting-list storage this
	// graph shares with its clones (see claimSlot).
	lin lineage.Token

	liveTriples int
	// degCount[d] counts entities of degree d (d ≥ 1) and maxDeg is the
	// largest degree with a nonzero count; both are maintained in O(1) per
	// Add/RemoveTriple so MaxDegree is a plain read for concurrent queries.
	degCount []int
	maxDeg   int
	// isolatedKeys and groupedKeys count the (subject, predicate) keys with
	// exactly one live triple and with two or more — SG′'s isolated points
	// and homologous nodes. Like the degree histogram they move in O(1) as a
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

func packKey(subjH, predH int32) uint64 {
	return uint64(uint32(subjH))<<32 | uint64(uint32(predH))
}

// AddEntity inserts (or upgrades) an entity and returns its canonical ID, the
// stored string. Re-adding an entity keeps the first non-empty Type/Domain
// seen. An upgrade installs a fresh *Entity rather than mutating the stored
// one, so entities reachable from published snapshots never change under a
// reader.
func (g *Graph) AddEntity(name, typ, domain string) string {
	id := CanonicalID(name)
	if id == "" {
		return ""
	}
	if h, ok := g.entLookup.get(id); ok {
		e := g.ents.get(h)
		if (e.Type == "" && typ != "") || (e.Domain == "" && domain != "") {
			ne := *e
			if ne.Type == "" {
				ne.Type = typ
			}
			if ne.Domain == "" {
				ne.Domain = domain
			}
			g.ents.set(h, &ne)
		}
		return e.ID
	}
	// A new entity stores exact-size strings. When name was already
	// canonical, id aliases it, and name may be a view into a whole file's
	// text that storing would pin; otherwise id is a fresh exact-size string
	// and name is stored as the caller passed it.
	if id == name {
		id = strings.Clone(id)
		name = id
	}
	h := g.ents.append(&Entity{ID: id, Name: name, Type: typ, Domain: domain})
	g.entLookup.put(id, h)
	return id
}

// internProv returns the handle of the (domain, format) pair, adding it if
// new. The triples of one file share a pair, so the previous slot's pair is
// tried first and the lookup key is built only when the pair changes.
func (g *Graph) internProv(domain, format string) int32 {
	if n := g.trs.len(); n > 0 {
		if prev := g.trs.get(int32(n - 1)); prev != nil {
			if p := g.provs.get(prev.prov); p.domain == domain && p.format == format {
				return prev.prov
			}
		}
	}
	key := strconv.Itoa(len(domain)) + ":" + domain + format // unambiguous for any two strings
	if h, ok := g.provLookup.get(key); ok {
		return h
	}
	h := g.provs.append(provenance{domain, format})
	g.provLookup.put(key, h)
	return h
}

func (g *Graph) internPred(p string) int32 {
	if h, ok := g.predLookup.get(p); ok {
		return h
	}
	h := g.preds.append(p)
	g.predLookup.put(p, h)
	return h
}

// maxTripleSlots is the most triple slots a graph holds: handles are int32,
// and the ID of the last one, TripleID(h) = "t" and h+1, must not wrap.
const maxTripleSlots = 1<<31 - 1

// AddTriple inserts a triple. The subject entity must already exist; the
// object is linked as an entity when its canonical form is a known entity (a
// pre-set ObjectEntity is honoured only when it names a known entity, and
// dropped otherwise). It returns the assigned triple ID, or an error once the
// graph holds maxTripleSlots slots.
func (g *Graph) AddTriple(f Fact) (string, error) {
	subjH, ok := g.entLookup.get(f.Subject)
	if !ok {
		return "", fmt.Errorf("kg: unknown subject entity %q", f.Subject)
	}
	if f.Predicate == "" {
		return "", fmt.Errorf("kg: triple with empty predicate (subject %q)", f.Subject)
	}
	if f.Weight == 0 {
		f.Weight = 1
	}
	objH := int32(-1)
	if f.ObjectEntity != "" {
		if h, ok := g.entLookup.get(f.ObjectEntity); ok {
			objH = h
		}
	} else if oid := CanonicalID(f.Object); oid != "" {
		if h, ok := g.entLookup.get(oid); ok {
			objH = h
		}
	}
	if g.trs.len() >= maxTripleSlots {
		return "", fmt.Errorf("kg: the graph holds %d triple slots, the most a handle can address", g.trs.len())
	}
	g.claimSlot()
	h, prov := int32(g.trs.len()), g.internProv(f.Domain, f.Format)
	g.trs.append(&Triple{Object: f.Object, Source: f.Source, ChunkID: f.ChunkID, Weight: f.Weight, h: h, prov: prov})
	g.link(h, subjH, objH, g.internPred(f.Predicate))
	return TripleID(h), nil
}

// link fills the handle columns and posting lists of the triple just appended
// at h and updates the degree histogram and the key counts. AddTriple and
// DecodeGraph insert through here.
func (g *Graph) link(h, subjH, objH, predH int32) {
	g.tSubj.append(subjH)
	g.tObj.append(objH)
	g.tPred.append(predH)
	g.bySubject.appendTo(subjH, h)
	n := g.byKey.appendTo(packKey(subjH, predH), h)
	g.countKey(n-1, -1)
	g.countKey(n, 1)
	if objH >= 0 {
		g.byObject.appendTo(objH, h)
	}
	g.liveTriples++
	if objH >= 0 && objH != subjH {
		g.bumpDegree(g.degreeH(subjH)-1, g.degreeH(subjH))
		g.bumpDegree(g.degreeH(objH)-1, g.degreeH(objH))
	} else if objH == subjH {
		g.bumpDegree(g.degreeH(subjH)-2, g.degreeH(subjH)) // self-loop: +2 on one entity
	} else {
		g.bumpDegree(g.degreeH(subjH)-1, g.degreeH(subjH))
	}
}

// claimSlot applies the claim-or-fork rule (package lineage) to the next
// triple slot, before AddTriple fills it. Clones share the bySubject and
// byObject lists with their spare capacity. A successful claim lets this
// graph append the slot's handle to them in place, behind the len every older
// snapshot reads to. A fork makes every posting page clip its lists when it
// is next privatized (postingCol.fork), which is what every commit paid
// before the rule: one reallocation per list appended to. Removal needs no
// claim — it replaces a list with a fresh copy and never writes in place.
func (g *Graph) claimSlot() {
	if g.lin.Claim(g.trs.len(), 1) {
		return
	}
	g.bySubject.fork()
	g.byObject.fork()
}

// bumpDegree moves one entity from degree old to degree new in the degree
// histogram and keeps maxDeg in sync. O(1) amortised.
func (g *Graph) bumpDegree(old, new int) {
	if old > 0 {
		g.degCount[old]--
	}
	if new > 0 {
		for len(g.degCount) <= new {
			g.degCount = append(g.degCount, 0)
		}
		g.degCount[new]++
		if new > g.maxDeg {
			g.maxDeg = new
		}
	}
	for g.maxDeg > 0 && g.degCount[g.maxDeg] == 0 {
		g.maxDeg--
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
	t := g.trs.get(h)
	if t == nil {
		return false
	}
	subjH, objH, predH := g.tSubj.get(h), g.tObj.get(h), g.tPred.get(h)
	g.trs.set(h, nil)
	g.liveTriples--
	g.bySubject.set(subjH, removeHandle(g.bySubject.get(subjH), h))
	if objH >= 0 {
		g.byObject.set(objH, removeHandle(g.byObject.get(objH), h))
	}
	kh := packKey(subjH, predH)
	lst, _ := g.byKey.get(kh)
	g.byKey.put(kh, removeHandle(lst, h))
	g.countKey(len(lst), -1)
	g.countKey(len(lst)-1, 1)
	if objH >= 0 && objH != subjH {
		g.bumpDegree(g.degreeH(subjH)+1, g.degreeH(subjH))
		g.bumpDegree(g.degreeH(objH)+1, g.degreeH(objH))
	} else if objH == subjH {
		g.bumpDegree(g.degreeH(subjH)+2, g.degreeH(subjH))
	} else {
		g.bumpDegree(g.degreeH(subjH)+1, g.degreeH(subjH))
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
// column page, posting list and interner base, and the lineage token.
// Whichever side mutates first copies only the pages it touches; its posting
// lists it extends in place if it wins the claim for the next triple slot and
// reallocates otherwise (claimSlot). Cloning costs O(corpus / pageSize)
// pointer copies plus the interner tails — effectively O(delta accumulated
// since the previous clone) — instead of the deep O(corpus) copy it replaces.
// Triple handles (and therefore IDs) stay unique and monotone across clone
// generations. The write path of the serving engine clones the current graph before
// applying a batch, leaving published snapshots immutable; mutating either
// side never changes any observable of the other.
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
		bySubject:  g.bySubject.clone(),
		byObject:   g.byObject.clone(),
		byKey:      g.byKey.clone(),
		lin:        g.lin,

		liveTriples: g.liveTriples,
		degCount:    append([]int(nil), g.degCount...),
		maxDeg:      g.maxDeg,

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
	if !ok || int(h) >= g.trs.len() {
		return nil, false
	}
	t := g.trs.get(h)
	return t, t != nil
}

// NumEntities returns the entity count.
func (g *Graph) NumEntities() int { return g.ents.len() }

// NumTriples returns the triple (relation instance) count.
func (g *Graph) NumTriples() int { return g.liveTriples }

// EntityIDs returns all canonical entity IDs, sorted.
func (g *Graph) EntityIDs() []string {
	ids := make([]string, 0, g.ents.len())
	g.ents.forEach(func(_ int32, e *Entity) {
		ids = append(ids, e.ID)
	})
	sort.Strings(ids)
	return ids
}

// TripleIDs returns all triple IDs, sorted.
func (g *Graph) TripleIDs() []string {
	ids := make([]string, 0, g.liveTriples)
	g.trs.forEach(func(_ int32, t *Triple) {
		if t != nil {
			ids = append(ids, t.ID())
		}
	})
	sort.Strings(ids)
	return ids
}

// TriplesBySubject returns the triples whose subject is the given entity, in
// insertion order.
func (g *Graph) TriplesBySubject(entityID string) []*Triple {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return []*Triple{}
	}
	return g.resolve(g.bySubject.get(h))
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

// TriplesByObjectEntity returns the triples whose object resolves to the
// given entity.
func (g *Graph) TriplesByObjectEntity(entityID string) []*Triple {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return []*Triple{}
	}
	return g.resolve(g.byObject.get(h))
}

func (g *Graph) resolve(handles []int32) []*Triple {
	out := make([]*Triple, 0, len(handles))
	for _, h := range handles {
		if t := g.trs.get(h); t != nil {
			out = append(out, t)
		}
	}
	return out
}

func (g *Graph) degreeH(entH int32) int {
	return len(g.bySubject.get(entH)) + len(g.byObject.get(entH))
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
// It is maintained through the degree histogram in O(1) per mutation, so
// reading it is a plain load and safe under concurrent readers.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// neighborHandles returns the handles of entities one hop from entH, sorted
// by handle and deduplicated.
func (g *Graph) neighborHandles(entH int32) []int32 {
	var hs []int32
	for _, th := range g.bySubject.get(entH) {
		if o := g.tObj.get(th); o >= 0 && o != entH {
			hs = append(hs, o)
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

// Neighbors returns the canonical IDs of entities one hop from entityID
// (through triples in either direction), sorted and deduplicated.
func (g *Graph) Neighbors(entityID string) []string {
	h, ok := g.entLookup.get(entityID)
	if !ok {
		return []string{}
	}
	hs := g.neighborHandles(h)
	out := make([]string, 0, len(hs))
	for _, nh := range hs {
		out = append(out, g.ents.get(nh).ID)
	}
	sort.Strings(out)
	return out
}
