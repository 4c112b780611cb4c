package extract

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"multirag/internal/adapter"
	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/wal"
)

// replayEncoded replays r's stream in its record form (EncodeTo), as the
// committer, replica apply and recovery read it, into g.
func replayEncoded(r *Recorder, g *kg.Graph) ([]byte, error) {
	var e wal.Encoder
	e.Grow(r.EncodedLen())
	r.EncodeTo(&e)
	if len(e.Bytes()) != r.EncodedLen() {
		return nil, fmt.Errorf("EncodeTo wrote %d bytes, EncodedLen says %d", len(e.Bytes()), r.EncodedLen())
	}
	d := wal.NewDecoder(e.Bytes())
	err := Replay(d, g)
	if err == nil {
		err = d.Finish()
	}
	return e.Bytes(), err
}

// mixedFormatFiles covers every adapter format, including text routed through
// the LLM extractor (the expensive path the recorder exists to parallelise).
func mixedFormatFiles() []adapter.RawFile {
	return []adapter.RawFile{
		{Domain: "flights", Source: "airport-api", Name: "schedule", Format: "csv",
			Content: []byte("flight,origin,status\nCA981,PEK,Delayed\nMU588,PVG,On time\n")},
		{Domain: "flights", Source: "airline-app", Name: "live", Format: "json",
			Content: []byte(`[{"flight":"CA981","status":{"state":"Delayed","reason":"Typhoon"}}]`)},
		{Domain: "flights", Source: "weather-feed", Name: "alerts", Format: "text",
			Content: []byte("The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.")},
		{Domain: "flights", Source: "ops-kg", Name: "facts", Format: "kg",
			Content: []byte("CA981|carrier|Air China\n")},
	}
}

// TestRecorderReplayMatchesDirectBuild is the correctness contract of the
// parallel ingestion engine: extracting into a Recorder, encoding its stream
// and replaying the encoded bytes into a graph must produce a graph
// bit-identical to extracting into the graph directly — same entities, same
// triples, same IDs, same object-entity links. ReplayAppend, which replays a
// recorder in place, lands on the same graph.
func TestRecorderReplayMatchesDirectBuild(t *testing.T) {
	fused, err := adapter.NewRegistry().Fuse(mixedFormatFiles())
	if err != nil {
		t.Fatal(err)
	}
	model := llm.NewSim(llm.Config{Seed: 1, ExtractionNoise: 0})

	direct := kg.New()
	directRep, err := New(model).Build(direct, fused)
	if err != nil {
		t.Fatal(err)
	}

	replayed, inPlace := kg.New(), kg.New()
	agg := Report{ByFormat: map[string]int{}}
	var allIDs []string
	for _, f := range fused {
		rec := NewRecorder()
		fileRep, err := New(model).BuildFile(rec, f)
		if err != nil {
			t.Fatal(err)
		}
		agg.Merge(fileRep)
		if _, err := replayEncoded(rec, replayed); err != nil {
			t.Fatal(err)
		}
		if allIDs, err = rec.ReplayAppend(inPlace, allIDs); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(inPlace.TripleIDs(), direct.TripleIDs()) || !reflect.DeepEqual(inPlace.EntityIDs(), direct.EntityIDs()) {
		t.Fatal("ReplayAppend diverges from the direct build")
	}

	if replayed.NumEntities() != direct.NumEntities() || replayed.NumTriples() != direct.NumTriples() {
		t.Fatalf("counts diverge: replay %d/%d direct %d/%d",
			replayed.NumEntities(), replayed.NumTriples(), direct.NumEntities(), direct.NumTriples())
	}
	if !reflect.DeepEqual(allIDs, direct.TripleIDs()) {
		t.Fatalf("ReplayAppend returned IDs %v, want %v", allIDs, direct.TripleIDs())
	}
	if !reflect.DeepEqual(replayed.TripleIDs(), direct.TripleIDs()) {
		t.Fatalf("triple ID sequences diverge")
	}
	for _, id := range direct.TripleIDs() {
		dt, _ := direct.Triple(id)
		rt, ok := replayed.Triple(id)
		if !ok || !reflect.DeepEqual(dt, rt) {
			t.Fatalf("triple %s diverges:\n direct %+v\n replay %+v", id, dt, rt)
		}
	}
	for _, id := range direct.EntityIDs() {
		de, _ := direct.Entity(id)
		re, ok := replayed.Entity(id)
		if !ok || !reflect.DeepEqual(de, re) {
			t.Fatalf("entity %s diverges:\n direct %+v\n replay %+v", id, de, re)
		}
	}
	if agg.ByFormat["csv"] != directRep.ByFormat["csv"] || agg.ByFormat["text"] != directRep.ByFormat["text"] {
		t.Fatalf("per-format counters diverge: %v vs %v", agg.ByFormat, directRep.ByFormat)
	}
}

// TestRecorderValidatesLikeGraph pins the error contract: the recorder must
// reject the same malformed operations the real graph rejects, with matching
// messages, so failures surface during the parallel phase.
func TestRecorderValidatesLikeGraph(t *testing.T) {
	rec := NewRecorder()
	if _, err := rec.AddTriple(kg.Fact{Subject: "ghost", Predicate: "p", Object: "o"}); err == nil {
		t.Fatal("unknown subject must be rejected")
	}
	id := rec.AddEntity("CA981", "Flight", "flights")
	if id != kg.CanonicalID("CA981") {
		t.Fatalf("canonical ID = %q", id)
	}
	if _, err := rec.AddTriple(kg.Fact{Subject: id, Predicate: "", Object: "o"}); err == nil {
		t.Fatal("empty predicate must be rejected")
	}
	if _, err := rec.AddTriple(kg.Fact{Subject: id, Predicate: "status", Object: "Delayed"}); err != nil {
		t.Fatalf("valid triple rejected: %v", err)
	}
	g := kg.New()
	if _, err := replayEncoded(rec, g); err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 1 {
		t.Fatalf("replay produced %d triples", g.NumTriples())
	}
}

// TestRecorderStoresExactCopies: the graph a recorded stream replays to
// stores exact copies, not views of the caller's text (CanonicalID returns an
// already-canonical name as is, so the ID AddEntity returns may be one) nor
// of the encoded stream, which the committer drops and a replica's log
// cursor reuses.
func TestRecorderStoresExactCopies(t *testing.T) {
	file := strings.Repeat("x", 4096) + " ca981 | status | delayed"
	within := func(s string, base *byte, n int) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(base))
		return s != "" && p >= lo && p < lo+uintptr(n)
	}
	r := NewRecorder()
	id := r.AddEntity(file[4097:4102], "Flight", "flights")
	if id != "ca981" {
		t.Fatalf("Recorder.AddEntity = %q", id)
	}
	if _, err := r.AddTriple(kg.Fact{Subject: id, Predicate: "status", Object: file[len(file)-7:]}); err != nil {
		t.Fatal(err)
	}
	g := kg.New()
	stream, err := replayEncoded(r, g)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := g.Entity("ca981")
	tr := g.TriplesByKey("ca981", "status")[0]
	for _, s := range []string{e.ID, e.Name, e.Type, g.Subject(tr), g.Predicate(tr), tr.Object} {
		if within(s, unsafe.StringData(file), len(file)) || within(s, unsafe.SliceData(stream), len(stream)) {
			t.Fatalf("replayed graph stores %q as a view of the input or of the stream", s)
		}
	}
	if tr.Object != "delayed" {
		t.Fatalf("replayed object %q", tr.Object)
	}
}
