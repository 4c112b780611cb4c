package extract

import (
	"fmt"

	"multirag/internal/kg"
	"multirag/internal/wal"
)

// Recorder is a Sink that encodes the extraction operation stream instead of
// mutating a graph. The concurrent ingestion engine runs one extraction per
// file on worker goroutines, each writing into a private Recorder; the
// encoded streams are then replayed into the master graph serially, in file
// order, under the write lock (Replay). Because replay executes exactly the
// operation sequence serial extraction would have executed — including the
// interleaving of AddEntity and AddTriple calls that drives object-entity
// linking — the resulting graph is bit-identical to single-threaded
// ingestion, while the expensive work (LLM calls, parsing, flattening)
// happens in parallel.
//
// The stream is kept in its WAL record form (EncodeTo) from the start, so a
// recorded file is its encoded bytes and nothing else: each op is a flag
// (entity or triple) and its fields, the string columns that repeat from op
// to op front-coded (wal.Encoder.Front) against the previous entity's or
// triple's — an entity's type and domain; a triple's subject, object entity,
// source, domain, format and chunk. The zero value is ready to use.
type Recorder struct {
	ops      wal.Encoder
	n        int                 // ops recorded
	triples  int                 // triple ops recorded
	entities map[string]struct{} // canonical IDs recorded so far (the subject check)
	// The previous entity op's type and domain and the previous triple op,
	// which the next op of the same kind is front-coded against.
	prevTyp, prevDomain string
	prev                kg.Fact
}

// NewRecorder returns an empty operation recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reset empties the recorder for another file, keeping its buffers.
func (r *Recorder) Reset() {
	r.ops.Reset()
	r.n, r.triples = 0, 0
	clear(r.entities)
	r.prevTyp, r.prevDomain, r.prev = "", "", kg.Fact{}
}

// AddEntity records an entity insertion and returns its canonical ID, exactly
// as *kg.Graph.AddEntity would.
func (r *Recorder) AddEntity(name, typ, domain string) string {
	id := kg.CanonicalID(name)
	if id == "" {
		return ""
	}
	r.ops.Bool(true)
	r.ops.String(name)
	r.ops.Front(r.prevTyp, typ)
	r.ops.Front(r.prevDomain, domain)
	r.prevTyp, r.prevDomain = typ, domain
	r.n++
	if r.entities == nil {
		r.entities = map[string]struct{}{}
	}
	r.entities[id] = struct{}{}
	return id
}

// AddTriple records a triple insertion. It mirrors *kg.Graph.AddTriple's
// validation against the entities recorded so far; the definitive insertion
// (ID assignment, object-entity linking against the full corpus) happens at
// replay time. The returned ID is a placeholder — extraction never reads it.
func (r *Recorder) AddTriple(f kg.Fact) (string, error) {
	if _, ok := r.entities[f.Subject]; !ok {
		return "", fmt.Errorf("kg: unknown subject entity %q", f.Subject)
	}
	if f.Predicate == "" {
		return "", fmt.Errorf("kg: triple with empty predicate (subject %q)", f.Subject)
	}
	e, prev := &r.ops, &r.prev
	e.Bool(false)
	e.Front(prev.Subject, f.Subject)
	e.String(f.Predicate)
	e.String(f.Object)
	e.Front(prev.ObjectEntity, f.ObjectEntity)
	e.Front(prev.Source, f.Source)
	e.Front(prev.Domain, f.Domain)
	e.Front(prev.Format, f.Format)
	e.Front(prev.ChunkID, f.ChunkID)
	e.F64(f.Weight)
	r.prev = f
	r.n++
	r.triples++
	return "", nil
}

// NumEntities reports the recorded entity count (Sink conformance; batch
// reports recompute real deltas against the master graph).
func (r *Recorder) NumEntities() int { return len(r.entities) }

// NumTriples reports the recorded triple count.
func (r *Recorder) NumTriples() int { return r.triples }

// EncodedLen is how many bytes EncodeTo appends.
func (r *Recorder) EncodedLen() int { return wal.UvarintSize(uint64(r.n)) + len(r.ops.Bytes()) }

// EncodeTo appends the recorded stream in its record form: the op count, then
// the ops. Replay reads it back.
func (r *Recorder) EncodeTo(e *wal.Encoder) {
	e.Int(r.n)
	e.Raw(r.ops.Bytes())
}

// ReplayAppend applies the recorded stream to g in recording order and
// appends the IDs of the triples inserted onto ids, decoding it as Replay
// does. The inserted triples are the slots g grew by, since every AddTriple
// claims the next one. On a mid-stream error the returned slice carries
// whatever was inserted before the failure.
func (r *Recorder) ReplayAppend(g *kg.Graph, ids []string) ([]string, error) {
	from := g.TripleSlots()
	d := wal.NewDecoder(r.ops.Bytes())
	err := replayOps(d, r.n, g)
	if err == nil {
		err = d.Finish()
	}
	for h := from; h < g.TripleSlots(); h++ {
		ids = append(ids, kg.TripleID(h))
	}
	return ids, err
}

// Replay decodes one recorded stream in its record form (EncodeTo) from d
// and applies it to g in recording order — AddEntity and AddTriple, the
// graph's own validation deciding what is accepted. It stops at the first
// malformed field (latched in d) or rejected triple and returns its error; g
// keeps what was applied before it. Nothing of d's input is kept: every
// string g stores is decoded into memory of its own.
func Replay(d *wal.Decoder, g *kg.Graph) error {
	return replayOps(d, d.Int(), g)
}

// replayOps decodes n ops from d into g. The fields that repeat from op to op
// — an entity's name, a triple's predicate and object, and the front-coded
// columns — are interned (wal.Decoder.Interned, Front), so g holds one copy
// of each value the stream repeats, and a value decoded again costs no
// allocation.
func replayOps(d *wal.Decoder, n int, g *kg.Graph) error {
	var prevTyp, prevDomain string
	var prev kg.Fact
	for k := 0; k < n && d.Err() == nil; k++ {
		if d.Bool() {
			name := d.Interned()
			prevTyp = d.Front(prevTyp)
			prevDomain = d.Front(prevDomain)
			if d.Err() == nil {
				g.AddEntity(name, prevTyp, prevDomain)
			}
			continue
		}
		f := kg.Fact{
			Subject:      d.Front(prev.Subject),
			Predicate:    d.Interned(),
			Object:       d.Interned(),
			ObjectEntity: d.Front(prev.ObjectEntity),
			Source:       d.Front(prev.Source),
			Domain:       d.Front(prev.Domain),
			Format:       d.Front(prev.Format),
			ChunkID:      d.Front(prev.ChunkID),
			Weight:       d.F64(),
		}
		if d.Err() != nil {
			break
		}
		if _, err := g.AddTriple(f); err != nil {
			return err
		}
		prev = f
	}
	return d.Err()
}
