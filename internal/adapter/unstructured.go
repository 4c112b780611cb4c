package adapter

import (
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

// Parse implements Adapter.
func (Unstructured) Parse(f RawFile) (*jsonld.Normalized, error) {
	text := strings.TrimSpace(string(f.Content))
	if text == "" {
		return nil, fmt.Errorf("text parse: empty file")
	}
	n := newNormalized(f)
	for i, para := range strings.Split(text, "\n\n") {
		para = strings.TrimSpace(para)
		if para == "" {
			continue
		}
		doc := jsonld.New(fmt.Sprintf("%s/para/%d", n.ID, i), "Text")
		doc.Set("text", para)
		n.JSC = append(n.JSC, doc)
	}
	if len(n.JSC) == 0 {
		return nil, fmt.Errorf("text parse: no paragraphs")
	}
	return n, nil
}

// KGFormat adapts data already stored as knowledge-graph triples, one per
// line: "subject|predicate|object". The Movies benchmark retains several
// sources in native KG format (Table I).
type KGFormat struct{}

// Format implements Adapter.
func (KGFormat) Format() string { return "kg" }

// Parse implements Adapter.
func (KGFormat) Parse(f RawFile) (*jsonld.Normalized, error) {
	n := newNormalized(f)
	lines := strings.Split(strings.TrimSpace(string(f.Content)), "\n")
	for i, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("kg parse: line %d: want subject|predicate|object, got %.64q", i+1, line)
		}
		doc := jsonld.New(fmt.Sprintf("%s/spo/%d", n.ID, i), "Triple")
		doc.Set("subject", strings.TrimSpace(parts[0]))
		doc.Set("predicate", strings.TrimSpace(parts[1]))
		doc.Set("object", strings.TrimSpace(parts[2]))
		n.JSC = append(n.JSC, doc)
	}
	if len(n.JSC) == 0 {
		return nil, fmt.Errorf("kg parse: no triples")
	}
	return n, nil
}
