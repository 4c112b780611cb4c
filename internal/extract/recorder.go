package extract

import (
	"fmt"
	"strings"

	"multirag/internal/kg"
)

// Recorder is a Sink that captures the extraction operation stream instead of
// mutating a graph. The concurrent ingestion engine runs one extraction per
// file on worker goroutines, each writing into a private Recorder; the
// recorded streams are then replayed into the master graph serially, in file
// order, under the write lock. Because replay executes exactly the operation
// sequence serial extraction would have executed — including the interleaving
// of AddEntity and AddTriple calls that drives object-entity linking — the
// resulting graph is bit-identical to single-threaded ingestion, while the
// expensive work (LLM calls, parsing, flattening) happens in parallel.
type Recorder struct {
	ops      []op
	entities map[string]string // canonical IDs recorded so far (subject check), to their stored copy
	triples  int
}

type op struct {
	// entity op when name != ""
	name, typ, domain string
	// triple op otherwise
	triple kg.Fact
}

// NewRecorder returns an empty operation recorder.
func NewRecorder() *Recorder {
	return &Recorder{entities: map[string]string{}}
}

// AddEntity records an entity insertion and returns its canonical ID, exactly
// as *kg.Graph.AddEntity would. The ID becomes the Subject of the triples the
// graph stores, so a new one is kept as an exact-size copy rather than as a
// view of name (CanonicalID returns a name already in canonical form as is),
// and a repeated one returns that copy.
func (r *Recorder) AddEntity(name, typ, domain string) string {
	id := kg.CanonicalID(name)
	if id == "" {
		return ""
	}
	r.ops = append(r.ops, op{name: name, typ: typ, domain: domain})
	if stored, ok := r.entities[id]; ok {
		return stored
	}
	if id == name {
		id = strings.Clone(id)
	}
	r.entities[id] = id
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
	r.ops = append(r.ops, op{triple: f})
	r.triples++
	return "", nil
}

// NumEntities reports the recorded entity-op count (Sink conformance; batch
// reports recompute real deltas against the master graph).
func (r *Recorder) NumEntities() int { return len(r.entities) }

// NumOps reports the length of the recorded operation stream: the entity and
// triple ops ForEachOp visits.
func (r *Recorder) NumOps() int { return len(r.ops) }

// NumTriples reports the recorded triple count.
func (r *Recorder) NumTriples() int { return r.triples }

// ForEachOp visits the recorded operation stream in recording order: entity
// ops through entity, triple ops through triple. The durability layer
// serializes a recorder through it and rebuilds one by feeding the visited
// ops back into AddEntity/AddTriple on a fresh Recorder, which reproduces the
// stream (and therefore ReplayAppend's effect) exactly.
func (r *Recorder) ForEachOp(entity func(name, typ, domain string), triple func(f kg.Fact)) {
	for _, o := range r.ops {
		if o.name != "" {
			entity(o.name, o.typ, o.domain)
		} else {
			triple(o.triple)
		}
	}
}

// ReplayAppend applies the recorded operation stream to g in recording order
// and appends the IDs of the triples inserted onto ids. Replay is cheap (map
// inserts); all model-driven work already happened while recording. The
// group committer replays every recorder of a commit group into one buffer
// preallocated for the whole group's recorded triple count; on a mid-batch
// error the caller truncates ids back to its pre-batch length (the returned
// slice always carries whatever was inserted before the failure).
func (r *Recorder) ReplayAppend(g *kg.Graph, ids []string) ([]string, error) {
	for _, o := range r.ops {
		if o.name != "" {
			g.AddEntity(o.name, o.typ, o.domain)
			continue
		}
		id, err := g.AddTriple(o.triple)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}
