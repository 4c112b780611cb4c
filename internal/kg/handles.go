package kg

// Handle-level API: the allocation-free view of the interned columnar core,
// used by the hot paths in internal/linegraph and internal/confidence. A
// handle is a dense int32 index assigned at insertion; entity and predicate
// handles are stable forever, triple handles are never reused after removal.
// All returned slices are shared storage and must be treated as read-only.

// TripleSlots returns the number of triple handle slots ever allocated
// (live + removed). Valid triple handles are [0, TripleSlots()).
func (g *Graph) TripleSlots() int32 { return int32(g.trs.len()) }

// TripleAt returns the live triple at handle h, or nil when h was removed or
// is out of range.
func (g *Graph) TripleAt(h int32) *Triple {
	if h < 0 || int(h) >= g.trs.len() {
		return nil
	}
	if t := g.trs.ref(h); t.live() {
		return t
	}
	return nil
}

// TripleKeyHandles returns the (subject, predicate) handle pair of the triple
// at h — its homologous-data key in interned form.
func (g *Graph) TripleKeyHandles(h int32) (subjH, predH int32) {
	return g.tSubj.get(h), g.tPred.get(h)
}

// EntityHandle returns the handle of the entity with the given canonical ID.
func (g *Graph) EntityHandle(id string) (int32, bool) { return g.entLookup.get(id) }

// EntityAt returns the entity at handle h.
func (g *Graph) EntityAt(h int32) *Entity { return g.ents.get(h) }

// PredicateHandle returns the handle of the predicate p.
func (g *Graph) PredicateHandle(p string) (int32, bool) { return g.predLookup.get(p) }

// PredicateAt returns the predicate at handle h.
func (g *Graph) PredicateAt(h int32) string { return g.preds.get(h) }

// SubjectPosting returns the handles of live triples whose subject is the
// entity at h, in insertion order. Read-only.
func (g *Graph) SubjectPosting(h int32) []int32 { return g.bySubject.get(h) }

// KeyPosting returns the handles of live triples sharing the (subject,
// predicate) key, in insertion order. Read-only.
func (g *Graph) KeyPosting(subjH, predH int32) []int32 { return g.byKey.get(subjH, predH) }

// ForEachKeyPosting visits every (subject, predicate) key with its posting
// list, in subject handle order and, for one subject, in the order its keys
// were first stated. Postings of fully-removed keys are empty. It is the
// tests' whole-graph walk: no product path may scan every key, and the root
// package's export guard fails if one calls it.
func (g *Graph) ForEachKeyPosting(fn func(subjH, predH int32, posting []int32)) {
	g.byKey.forEach(fn)
}

// ForEachTriple visits every live triple with its handle, in handle order.
func (g *Graph) ForEachTriple(fn func(h int32, t *Triple)) {
	for h := int32(0); int(h) < g.trs.len(); h++ {
		if t := g.trs.ref(h); t.live() {
			fn(h, t)
		}
	}
}
