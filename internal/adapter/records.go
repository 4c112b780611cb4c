package adapter

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"multirag/internal/jsonld"
)

// records collects one file's records while its adapter parses it, in
// scratch kept from one file to the next: documents, properties and list
// values in flat tables that refer to each other by index, and every record
// ID back to back in one buffer. finish then lays the file out in a handful
// of exactly sized allocations, however many records it holds: the
// documents, their properties and list values, the ID bytes and the record
// list.
type records struct {
	docs  []rdoc
	props []rprop
	vals  []string // list values, each list a run
	ids   []byte
	top   []int   // the file's records (Normalized.JSC), as docs indexes
	open  []rprop // properties of the documents being built
}

// rdoc is one document: its ID in records.ids and its properties, a run of
// records.props in key order.
type rdoc struct {
	typ            string
	idLo, idHi     int
	propLo, propHi int
}

// rprop is one property. Its value is str, or the list vals[lo:hi] when
// list is set, or the document docs[lo] when node is set.
type rprop struct {
	key        string
	str        string
	lo, hi     int
	list, node bool
}

// flatPool holds the scratch of the formats whose records do not nest.
var flatPool = sync.Pool{New: func() any { return new(records) }}

// maxPooled bounds the entries of any table a scratch keeps when it goes back
// to its pool: a file far larger than the rest does not pin its tables for
// the life of the process.
const maxPooled = 1 << 16

func (r *records) reset() {
	r.docs, r.props, r.vals, r.ids, r.top, r.open = r.docs[:0], r.props[:0], r.vals[:0], r.ids[:0], r.top[:0], r.open[:0]
}

// release drops r's references into the file it collected and reports
// whether r is small enough to pool.
func (r *records) release() bool {
	if max(cap(r.docs), cap(r.props), cap(r.vals), cap(r.ids), cap(r.top), cap(r.open)) > maxPooled {
		return false
	}
	clear(r.docs)
	clear(r.props)
	clear(r.vals)
	clear(r.open[:cap(r.open)])
	return true
}

// getFlat returns pooled scratch for a flat format's file; putFlat pools it
// again.
func getFlat() *records {
	r := flatPool.Get().(*records)
	r.reset()
	return r
}

func putFlat(r *records) {
	if r.release() {
		flatPool.Put(r)
	}
}

// newID appends the ID of a file's record i, "<file ID>/<part>/<i>", and
// returns where it lies in the ID buffer.
func (r *records) newID(fileID, part string, i int) (lo, hi int) {
	lo = len(r.ids)
	r.ids = append(r.ids, fileID...)
	r.ids = append(r.ids, '/')
	r.ids = append(r.ids, part...)
	r.ids = append(r.ids, '/')
	r.ids = strconv.AppendInt(r.ids, int64(i), 10)
	return lo, len(r.ids)
}

// childID appends the ID of a nested record under key, "<parent ID>/<key>",
// and returns where it lies.
func (r *records) childID(parentLo, parentHi int, key string) (lo, hi int) {
	lo = len(r.ids)
	r.ids = append(r.ids, r.ids[parentLo:parentHi]...)
	r.ids = append(r.ids, '/')
	r.ids = append(r.ids, key...)
	return lo, len(r.ids)
}

// closeDoc ends a document whose ID is ids[idLo:idHi] and whose properties
// are r.open[from:]: sorted by key (stably, so that of equal keys the one set
// last ends the run), each key's last value moved to r.props, and the
// document added. It returns the document's index.
func (r *records) closeDoc(typ string, idLo, idHi, from int) int {
	p := r.open[from:]
	if !slices.IsSortedFunc(p, byKey) {
		slices.SortStableFunc(p, byKey)
	}
	lo := len(r.props)
	for i := range p {
		if i+1 < len(p) && p[i+1].key == p[i].key {
			continue
		}
		r.props = append(r.props, p[i])
	}
	r.open = r.open[:from]
	r.docs = append(r.docs, rdoc{typ: typ, idLo: idLo, idHi: idHi, propLo: lo, propHi: len(r.props)})
	return len(r.docs) - 1
}

func byKey(a, b rprop) int { return strings.Compare(a.key, b.key) }

// finish lays the collected records out as n's documents.
func (r *records) finish(n *jsonld.Normalized) {
	if len(r.top) == 0 {
		return
	}
	ids := string(r.ids)
	docs := make([]jsonld.Document, len(r.docs))
	props := make([]jsonld.Prop, len(r.props))
	var vals []string
	if len(r.vals) > 0 {
		vals = slices.Clone(r.vals)
	}
	for i, p := range r.props {
		props[i].Key = p.key
		switch {
		case p.node:
			props[i].Node = &docs[p.lo]
		case p.list:
			props[i].List = vals[p.lo:p.hi:p.hi]
		default:
			props[i].Str = p.str
		}
	}
	for i, d := range r.docs {
		docs[i] = jsonld.Document{ID: ids[d.idLo:d.idHi], Type: d.typ, Props: props[d.propLo:d.propHi:d.propHi]}
	}
	n.JSC = make([]*jsonld.Document, len(r.top))
	for i, t := range r.top {
		n.JSC[i] = &docs[t]
	}
}
