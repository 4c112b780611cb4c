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
	r.n = 0
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
	return "", nil
}

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
// does. The inserted triples are the slots g grew by, since every InsertTriple
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
// and applies it to g in recording order — AddEntityView and InsertView,
// which validate as AddEntity and InsertTriple do, the graph deciding what is
// accepted. It stops at the first
// malformed field (latched in d) or rejected triple and returns its error; g
// keeps what was applied before it. Nothing of d's input is kept: every
// string g stores is decoded into memory of its own.
func Replay(d *wal.Decoder, g *kg.Graph) error {
	return replayOps(d, d.Int(), g)
}

// replayOps decodes n ops from d into g. The fields g only resolves against
// what it holds — an entity's name, type and domain, a triple's subject,
// predicate, object entity, domain and format — are read as views of the
// input (wal.Decoder.View) or, front-coded, into stack buffers
// (AppendFront), and handed to g as bytes (AddEntityView, InsertView), which
// makes a string only of a value it keeps and does not hold yet. The fields
// every triple stores — its object, source and chunk — are interned
// (wal.Decoder.Interned, Front), so g holds one copy of each value the stream
// repeats, and a value decoded again costs no allocation.
func replayOps(d *wal.Decoder, n int, g *kg.Graph) error {
	var typBuf, domBuf, subjBuf, objBuf, tdomBuf, fmtBuf [64]byte
	typ, domain := typBuf[:0], domBuf[:0]
	f := kg.FactView{Subject: subjBuf[:0], ObjectEntity: objBuf[:0], Domain: tdomBuf[:0], Format: fmtBuf[:0]}
	var t kg.Triple // the stored fields; Source and ChunkID front-code against the previous triple's
	for k := 0; k < n && d.Err() == nil; k++ {
		if d.Bool() {
			name := d.View()
			typ = d.AppendFront(typ[:0], typ)
			domain = d.AppendFront(domain[:0], domain)
			if d.Err() == nil {
				g.AddEntityView(name, typ, domain)
			}
			continue
		}
		f.Subject = d.AppendFront(f.Subject[:0], f.Subject)
		f.Predicate = d.View()
		t.Object = d.Interned()
		f.ObjectEntity = d.AppendFront(f.ObjectEntity[:0], f.ObjectEntity)
		t.Source = d.Front(t.Source)
		f.Domain = d.AppendFront(f.Domain[:0], f.Domain)
		f.Format = d.AppendFront(f.Format[:0], f.Format)
		t.ChunkID = d.Front(t.ChunkID)
		t.Weight = d.F64()
		if d.Err() != nil {
			break
		}
		if _, err := g.InsertView(&f, t); err != nil {
			return err
		}
	}
	return d.Err()
}
