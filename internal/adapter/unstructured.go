package adapter

import (
	"errors"
	"fmt"
	"strings"

	"multirag/internal/jsonld"
)

// Unstructured adapts free text (§III-B: "for unstructured data, the focus is
// currently limited to textual information, which is stored directly").
// Paragraphs (blank-line separated) become individual records so downstream
// chunking and LLM entity/relation extraction operate on bounded units.
type Unstructured struct{}

// Format implements Adapter.
func (Unstructured) Format() string { return "text" }

// Parse implements Adapter. Paragraphs are substrings of one copy of the
// content.
func (Unstructured) Parse(f RawFile) (*jsonld.Normalized, error) {
	text := strings.TrimSpace(string(f.Content))
	if text == "" {
		return nil, errors.New("text parse: empty file")
	}
	r := getFlat()
	defer putFlat(r)
	n := newNormalized(f)
	for i, more := 0, true; more; i++ {
		var para string
		para, text, more = strings.Cut(text, "\n\n")
		if para = strings.TrimSpace(para); para == "" {
			continue
		}
		from := len(r.open)
		r.open = append(r.open, rprop{key: "text", str: para})
		lo, hi := r.newID(n.ID, "para", i)
		r.top = append(r.top, r.closeDoc("Text", lo, hi, from))
	}
	if len(r.top) == 0 {
		return nil, errors.New("text parse: no paragraphs")
	}
	r.finish(n)
	return n, nil
}

// KGFormat adapts data already stored as knowledge-graph triples, one per
// line: "subject|predicate|object". The Movies benchmark retains several
// sources in native KG format (Table I).
type KGFormat struct{}

// Format implements Adapter.
func (KGFormat) Format() string { return "kg" }

// Parse implements Adapter. Lines and their fields are substrings of one copy
// of the content.
func (KGFormat) Parse(f RawFile) (*jsonld.Normalized, error) {
	r := getFlat()
	defer putFlat(r)
	n := newNormalized(f)
	text := strings.TrimSpace(string(f.Content))
	for i, more := 0, true; more; i++ {
		var line string
		line, text, more = strings.Cut(text, "\n")
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		subject, rest, ok := strings.Cut(line, "|")
		predicate, object, ok2 := strings.Cut(rest, "|")
		if !ok || !ok2 {
			return nil, fmt.Errorf("kg parse: line %d: want subject|predicate|object, got %.64q", i+1, line)
		}
		from := len(r.open)
		r.open = append(r.open,
			rprop{key: "object", str: strings.TrimSpace(object)},
			rprop{key: "predicate", str: strings.TrimSpace(predicate)},
			rprop{key: "subject", str: strings.TrimSpace(subject)})
		lo, hi := r.newID(n.ID, "spo", i)
		r.top = append(r.top, r.closeDoc("Triple", lo, hi, from))
	}
	if len(r.top) == 0 {
		return nil, errors.New("kg parse: no triples")
	}
	r.finish(n)
	return n, nil
}
