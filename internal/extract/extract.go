// Package extract turns fused, normalised linked data into knowledge-graph
// entities and triples: the knowledge-construction phase of §III-B (Eq. 3).
// It is the stdlib equivalent of OpenSPG's SchemaFreeExtractor pipeline:
// entity recognition (ner.py), SPO triple extraction (triple.py) and entity
// standardisation / attribute extraction (std.py), with the LLM steps served
// by the internal/llm model.
//
// Structured, semi-structured and KG-format records are mapped rule-based
// (their schema already names entities and attributes); unstructured text is
// routed through the LLM extractor.
package extract

import (
	"fmt"
	"sort"
	"strings"

	"multirag/internal/jsonld"
	"multirag/internal/kg"
	"multirag/internal/llm"
)

// keyProps are the property names tried, in order, to locate the entity a
// semi-structured record describes when the file metadata does not designate
// one via Meta["key"].
var keyProps = []string{"@key", "name", "title", "id", "flight", "symbol", "isbn", "@isbn"}

// Extractor builds knowledge graphs from normalised multi-source data.
type Extractor struct {
	model *llm.Sim
	raw   bool
}

// New returns an extractor backed by the given model, with the entity
// standardisation phase (std.py) enabled — the MultiRAG knowledge
// construction configuration.
func New(model *llm.Sim) *Extractor {
	return &Extractor{model: model}
}

// NewRaw returns an extractor without the standardisation phase: entity
// surface forms are only case/punctuation-normalised. Baseline environments
// use this configuration — entity standardisation is part of MultiRAG's
// knowledge-construction contribution, not of the comparison methods.
func NewRaw(model *llm.Sim) *Extractor {
	return &Extractor{model: model, raw: true}
}

// std canonicalises an entity name according to the extractor mode.
func (e *Extractor) std(name string) string {
	if e.raw {
		return name
	}
	return e.model.Standardize(name)
}

// Report summarises one extraction run.
type Report struct {
	Files     int
	Entities  int
	Triples   int
	ByFormat  map[string]int // triples contributed per source format
	SkippedNo int            // records skipped because no entity key was found
}

// Merge folds another report's counters into rep (batch ingestion aggregates
// per-file reports).
func (rep *Report) Merge(other Report) {
	rep.Files += other.Files
	rep.Entities += other.Entities
	rep.Triples += other.Triples
	rep.SkippedNo += other.SkippedNo
	for k, v := range other.ByFormat {
		rep.ByFormat[k] += v
	}
}

// Sink receives extraction output. *kg.Graph is the canonical implementation;
// *Recorder captures the same operation stream for deferred, deterministic
// replay so that the expensive extraction work (LLM calls, parsing,
// flattening) can run on worker goroutines without sharing the graph.
type Sink interface {
	AddEntity(name, typ, domain string) string
	AddTriple(f kg.Fact) (string, error)
}

// BuildFile extracts a single file into g. It is the per-file unit of work
// the concurrent ingestion engine fans out across workers (each worker gets
// its own Recorder sink). The returned report carries the per-format and
// skip counters; Entities/Triples deltas are left to the caller, which knows
// the surrounding batch.
func (e *Extractor) BuildFile(g Sink, f *jsonld.Normalized) (Report, error) {
	rep := Report{ByFormat: map[string]int{}}
	var err error
	switch f.Format {
	case "csv":
		err = e.buildStructured(g, f, &rep)
	case "json", "xml":
		err = e.buildSemi(g, f, &rep)
	case "kg":
		err = e.buildKG(g, f, &rep)
	case "text":
		err = e.buildText(g, f, &rep)
	default:
		err = fmt.Errorf("extract: unsupported format %q", f.Format)
	}
	if err != nil {
		return rep, fmt.Errorf("extract: file %s: %w", f.ID, err)
	}
	rep.Files++
	return rep, nil
}

// entityType guesses a coarse type from the file metadata, defaulting to the
// capitalised domain ("movies" → "Movies").
func entityType(f *jsonld.Normalized) string {
	if t := f.Meta["type"]; t != "" {
		return t
	}
	if f.Domain == "" {
		return "Entity"
	}
	return strings.ToUpper(f.Domain[:1]) + f.Domain[1:]
}

func (e *Extractor) addTriple(g Sink, f *jsonld.Normalized, rep *Report, subjID, pred, obj, chunk string, weight float64) error {
	if obj == "" || pred == "" {
		return nil
	}
	_, err := g.AddTriple(kg.Fact{
		Subject:   subjID,
		Predicate: pred,
		Object:    obj,
		Source:    f.Source,
		Domain:    f.Domain,
		Format:    f.Format,
		ChunkID:   chunk,
		Weight:    weight,
	})
	if err != nil {
		return err
	}
	rep.ByFormat[f.Format]++
	return nil
}

// buildStructured maps DSM-backed tabular records: @key names the entity,
// all other columns are attributes.
func (e *Extractor) buildStructured(g Sink, f *jsonld.Normalized, rep *Report) error {
	typ := entityType(f)
	for _, doc := range f.JSC {
		keyVal, ok := doc.Get("@key")
		if !ok || keyVal.Str == "" {
			rep.SkippedNo++
			continue
		}
		subj := g.AddEntity(e.std(keyVal.Str), typ, f.Domain)
		for i := range doc.Props {
			p := &doc.Props[i]
			if p.Key == "@key" {
				continue
			}
			for _, obj := range p.Strings() {
				if err := e.addTriple(g, f, rep, subj, p.Key, obj, doc.ID, 1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// buildSemi maps nested JSON/XML records. The record's key property names the
// entity; nested nodes flatten into underscore-joined attribute paths
// (status.state → status_state).
func (e *Extractor) buildSemi(g Sink, f *jsonld.Normalized, rep *Report) error {
	typ := entityType(f)
	keyProp := f.Meta["key"]
	for _, doc := range f.JSC {
		key := findKey(doc, keyProp)
		if key == "" {
			rep.SkippedNo++
			continue
		}
		subj := g.AddEntity(e.std(key), typ, f.Domain)
		if err := e.flatten(g, f, rep, subj, doc, "", key); err != nil {
			return err
		}
	}
	return nil
}

func findKey(doc *jsonld.Document, designated string) string {
	if designated != "" {
		if v, ok := doc.Get(designated); ok && v.Str != "" {
			return v.Str
		}
		return ""
	}
	for _, p := range keyProps {
		if v, ok := doc.Get(p); ok && v.Str != "" {
			return v.Str
		}
	}
	return ""
}

func (e *Extractor) flatten(g Sink, f *jsonld.Normalized, rep *Report, subj string, doc *jsonld.Document, prefix, keyVal string) error {
	for i := range doc.Props {
		v := &doc.Props[i]
		name := cleanProp(v.Key)
		if prefix != "" {
			name = prefix + "_" + name
		}
		if v.Node != nil {
			if err := e.flatten(g, f, rep, subj, v.Node, name, keyVal); err != nil {
				return err
			}
			continue
		}
		// Skip the key property itself at the top level.
		if prefix == "" && v.Str == keyVal {
			continue
		}
		for _, obj := range v.Strings() {
			if err := e.addTriple(g, f, rep, subj, name, obj, doc.ID, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// cleanProp normalises a property path segment: "@isbn" → "isbn",
// "author/0" → "author".
func cleanProp(p string) string {
	p = strings.TrimPrefix(p, "@")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	return p
}

// buildKG maps native triple records directly.
func (e *Extractor) buildKG(g Sink, f *jsonld.Normalized, rep *Report) error {
	typ := entityType(f)
	for _, doc := range f.JSC {
		s, _ := doc.Get("subject")
		p, _ := doc.Get("predicate")
		o, _ := doc.Get("object")
		if s.Str == "" || p.Str == "" {
			rep.SkippedNo++
			continue
		}
		subj := g.AddEntity(e.std(s.Str), typ, f.Domain)
		if err := e.addTriple(g, f, rep, subj, cleanProp(p.Str), o.Str, doc.ID, 1); err != nil {
			return err
		}
	}
	return nil
}

// buildText routes unstructured paragraphs through the LLM pipeline:
// NER → SPO extraction → standardisation (§III-B's three custom-prompt
// phases). Extraction confidence becomes the triple weight.
func (e *Extractor) buildText(g Sink, f *jsonld.Normalized, rep *Report) error {
	typ := entityType(f)
	for _, doc := range f.JSC {
		tv, ok := doc.Get("text")
		if !ok || tv.Str == "" {
			rep.SkippedNo++
			continue
		}
		mentions := e.model.ExtractEntities(tv.Str)
		var subjects []llm.Mention
		for _, m := range mentions {
			if m.Type == "Entity" {
				subjects = append(subjects, m)
			}
		}
		spos := e.model.ExtractTriples(tv.Str, subjects)
		// Deterministic ordering: the simulated model already returns
		// sentence order, but sort defensively by (subject, predicate).
		sort.SliceStable(spos, func(i, j int) bool {
			if spos[i].Subject != spos[j].Subject {
				return spos[i].Subject < spos[j].Subject
			}
			return spos[i].Predicate < spos[j].Predicate
		})
		for _, spo := range spos {
			subj := g.AddEntity(e.std(spo.Subject), typ, f.Domain)
			if err := e.addTriple(g, f, rep, subj, spo.Predicate, spo.Object, doc.ID, spo.Confidence); err != nil {
				return err
			}
		}
	}
	return nil
}
