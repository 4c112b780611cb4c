package extract

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"multirag/internal/adapter"
	"multirag/internal/kg"
	"multirag/internal/llm"
)

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
// parallel ingestion engine: extracting into a Recorder and replaying into a
// graph must produce a graph bit-identical to extracting into the graph
// directly — same entities, same triples, same IDs, same object-entity links.
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

	replayed := kg.New()
	agg := Report{ByFormat: map[string]int{}}
	var allIDs []string
	for _, f := range fused {
		rec := NewRecorder()
		fileRep, err := New(model).BuildFile(rec, f)
		if err != nil {
			t.Fatal(err)
		}
		agg.Merge(fileRep)
		ids, err := rec.ReplayAppend(replayed, nil)
		if err != nil {
			t.Fatal(err)
		}
		allIDs = append(allIDs, ids...)
	}

	if replayed.NumEntities() != direct.NumEntities() || replayed.NumTriples() != direct.NumTriples() {
		t.Fatalf("counts diverge: replay %d/%d direct %d/%d",
			replayed.NumEntities(), replayed.NumTriples(), direct.NumEntities(), direct.NumTriples())
	}
	if len(allIDs) != direct.NumTriples() {
		t.Fatalf("ReplayAppend returned %d IDs, want %d", len(allIDs), direct.NumTriples())
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
	ids, err := rec.ReplayAppend(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || g.NumTriples() != 1 {
		t.Fatalf("replay produced %v (%d triples)", ids, g.NumTriples())
	}
}

// TestRecorderStoresExactCopies: the ID a Recorder returns becomes the
// Subject of the triples the graph stores, so a new one must not be a view of
// the caller's name (CanonicalID returns an already-canonical name as is); a
// repeated entity returns the same copy, and replay stores copies too.
func TestRecorderStoresExactCopies(t *testing.T) {
	file := strings.Repeat("x", 4096) + " ca981 | status | delayed"
	within := func(s string) bool {
		p, base := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(file)))
		return s != "" && p >= base && p < base+uintptr(len(file))
	}
	r := NewRecorder()
	id := r.AddEntity(file[4097:4102], "Flight", "flights")
	if id != "ca981" || within(id) {
		t.Fatalf("Recorder.AddEntity = %q, aliases the input buffer: %v", id, within(id))
	}
	if again := r.AddEntity(file[4097:4102], "", ""); unsafe.StringData(again) != unsafe.StringData(id) {
		t.Fatal("a repeated entity must return the recorded copy")
	}
	if _, err := r.AddTriple(kg.Fact{Subject: id, Predicate: "status", Object: "delayed"}); err != nil {
		t.Fatal(err)
	}
	g := kg.New()
	if _, err := r.ReplayAppend(g, nil); err != nil {
		t.Fatal(err)
	}
	e, _ := g.Entity("ca981")
	for _, s := range []string{e.ID, e.Name, g.Subject(g.TriplesByKey("ca981", "status")[0])} {
		if within(s) {
			t.Fatalf("replayed graph stores %q as a view of the input buffer", s)
		}
	}
}
