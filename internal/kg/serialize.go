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
// bytes hold one per row; a triple's domain and format are interned again as
// the graph's (domain, format) pair. Every string the decoded graph keeps —
// those values, an entity's ID and Name, a predicate — lives in the
// decoder's arena when it has one (wal.Decoder.SetArena): packed into shared
// blocks, not a heap object per value.
//
// Derivable fields are not stored: a triple's ID comes from its handle, its
// subject from the subject entity handle and its predicate from the predicate
// handle. Its object entity is written for the format's sake, as the linked
// entity's ID, and decoding checks it against the object handle. Posting
// lists and the degree histogram are rebuilt by replaying the live appends in
// handle order, which reproduces insertion order exactly (removal preserves
// relative order of the survivors).

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
	var prev [5]string // the previous live triple's object entity, source, domain, format and chunk
	for h := int32(0); int(h) < g.trs.len(); h++ {
		t := g.trs.ref(h)
		e.Bool(t.live())
		e.Int(int(g.tSubj.get(h)))
		e.Int32(g.tObj.get(h))
		e.Int(int(g.tPred.get(h)))
		if t.live() {
			row := [5]string{g.ObjectEntity(t), t.Source, g.Domain(t), g.Format(t), t.ChunkID}
			e.String(t.Object)
			for i := range row {
				e.Front(prev[i], row[i])
			}
			e.F64(t.Weight)
			prev = row
		}
	}
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
	var prev [5]string // as in EncodeTo
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
			g.trs.append(Triple{h: int32(i), prov: removed})
			g.tSubj.append(subjH)
			g.tObj.append(objH)
			g.tPred.append(predH)
			continue
		}
		object := d.Interned()
		var row [5]string
		for j := range row {
			row[j] = d.Front(prev[j])
		}
		weight := d.F64()
		if d.Err() != nil {
			break
		}
		want := ""
		if objH >= 0 {
			want = g.ents.get(objH).ID
		}
		if row[0] != want {
			return nil, fmt.Errorf("kg: decode: triple slot %d names object entity %q, its object handle is %d", i, row[0], objH)
		}
		prev = row
		h := int32(i)
		g.trs.append(Triple{Object: object, Source: row[1], ChunkID: row[4], Weight: weight, h: h, prov: internProv(g, row[2], row[3])})
		g.link(h, subjH, objH, predH, false)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	g.lin = lineage.New(g.trs.len()) // the slots were filled without claiming
	return g, nil
}
