package kg

import (
	"fmt"

	"multirag/internal/lineage"
	"multirag/internal/wal"
)

// Checkpoint serialization of the interned graph core. The wire form is the
// columnar layout itself, in handle order: entities, then predicates, then
// every triple slot (live or tombstoned) with its interned handles. Decoding
// replays the column appends one handle at a time, so the rebuilt graph is
// observably identical to the source — same handles, same posting-list
// orders, same degree histogram — and re-encoding it reproduces the exact
// same bytes. Removed triples keep their slots (handles are never reused), so
// triple IDs assigned after recovery continue the original sequence.
//
// The columns whose values repeat or share a stem from one row to the next —
// an entity's Type and Domain, a triple's ObjectEntity, Source, Domain,
// Format and ChunkID — are front-coded against the same column's value in the
// previous entity or live triple (wal.Encoder.Front), so a run of one source's
// triples costs a byte or two per field instead of the whole value. Decoding
// reads them, and a triple's Object, through the decoder's intern table, so a
// decoded graph holds one copy of each distinct value where the encoded
// bytes hold one per row.
//
// Derivable fields are not stored: a triple's ID comes from its handle, its
// Subject from the subject entity handle and its Predicate from the predicate
// handle. Posting lists and the degree histogram are rebuilt by replaying the
// live appends in handle order, which reproduces insertion order exactly
// (removal preserves relative order of the survivors).

// EncodeTo serializes the graph into e.
func (g *Graph) EncodeTo(e *wal.Encoder) {
	e.Int(g.ents.len())
	prevEnt := &Entity{}
	g.ents.forEach(func(_ int32, ent *Entity) {
		e.String(ent.ID)
		e.String(ent.Name)
		e.Front(prevEnt.Type, ent.Type)
		e.Front(prevEnt.Domain, ent.Domain)
		prevEnt = ent
	})
	e.Int(g.preds.len())
	g.preds.forEach(func(_ int32, p string) { e.String(p) })
	e.Int(g.trs.len())
	prev := &Triple{}
	g.trs.forEach(func(h int32, t *Triple) {
		e.Bool(t != nil)
		e.Int(int(g.tSubj.get(h)))
		e.Int32(g.tObj.get(h))
		e.Int(int(g.tPred.get(h)))
		if t != nil {
			e.String(t.Object)
			e.Front(prev.ObjectEntity, t.ObjectEntity)
			e.Front(prev.Source, t.Source)
			e.Front(prev.Domain, t.Domain)
			e.Front(prev.Format, t.Format)
			e.Front(prev.ChunkID, t.ChunkID)
			e.F64(t.Weight)
			prev = t
		}
	})
}

// DecodeGraph rebuilds a graph from d (the inverse of EncodeTo). Handles are
// validated against the decoded column sizes, so a corrupt payload fails with
// an error instead of an out-of-bounds panic.
func DecodeGraph(d *wal.Decoder) (*Graph, error) {
	g := New()
	nEnts := d.Int()
	prevEnt := &Entity{}
	for i := 0; i < nEnts && d.Err() == nil; i++ {
		ent := &Entity{ID: d.String(), Name: d.String()}
		ent.Type = d.Front(prevEnt.Type)
		ent.Domain = d.Front(prevEnt.Domain)
		prevEnt = ent
		h := g.ents.append(ent)
		g.entLookup.put(ent.ID, h)
	}
	nPreds := d.Int()
	for i := 0; i < nPreds && d.Err() == nil; i++ {
		p := d.String()
		h := g.preds.append(p)
		g.predLookup.put(p, h)
	}
	slots := d.Int()
	prev := &Triple{}
	for i := 0; i < slots && d.Err() == nil; i++ {
		live := d.Bool()
		subjH := int32(d.Int())
		objH := d.Int32()
		predH := int32(d.Int())
		if d.Err() != nil {
			break
		}
		if int(subjH) >= nEnts || int(predH) >= nPreds || objH < -1 || int(objH) >= nEnts {
			return nil, fmt.Errorf("kg: decode: triple slot %d references out-of-range handles (subj %d, obj %d, pred %d)",
				i, subjH, objH, predH)
		}
		if !live {
			g.trs.append(nil)
			g.tSubj.append(subjH)
			g.tObj.append(objH)
			g.tPred.append(predH)
			continue
		}
		t := &Triple{
			ID:           tripleIDString(int32(i + 1)),
			Subject:      g.ents.get(subjH).ID,
			Predicate:    g.preds.get(predH),
			Object:       d.Interned(),
			ObjectEntity: d.Front(prev.ObjectEntity),
			Source:       d.Front(prev.Source),
			Domain:       d.Front(prev.Domain),
			Format:       d.Front(prev.Format),
			ChunkID:      d.Front(prev.ChunkID),
			Weight:       d.F64(),
		}
		prev = t
		h := g.trs.append(t)
		g.tSubj.append(subjH)
		g.tObj.append(objH)
		g.tPred.append(predH)
		g.bySubject.appendTo(subjH, h)
		g.byKey.appendTo(packKey(subjH, predH), h)
		if objH >= 0 {
			g.byObject.appendTo(objH, h)
		}
		g.liveTriples++
		if objH >= 0 && objH != subjH {
			g.bumpDegree(g.degreeH(subjH)-1, g.degreeH(subjH))
			g.bumpDegree(g.degreeH(objH)-1, g.degreeH(objH))
		} else if objH == subjH {
			g.bumpDegree(g.degreeH(subjH)-2, g.degreeH(subjH))
		} else {
			g.bumpDegree(g.degreeH(subjH)-1, g.degreeH(subjH))
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	g.lin = lineage.New(g.trs.len()) // the slots were filled without claiming
	return g, nil
}
