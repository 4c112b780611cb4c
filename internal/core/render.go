package core

import (
	"strings"

	"multirag/internal/jsonld"
	"multirag/internal/retrieval"
)

// chunkBudget is the token budget of one chunk in the retrieval index.
const chunkBudget = 64

// RenderChunks converts a normalised file into retrievable chunks. Text
// records chunk their raw paragraphs; structured records are verbalised as
// benchmark-grammar sentences so that chunk retrieval and per-query LLM
// extraction can reach the same facts the KG holds. It is exported for the
// benchmark harness, which builds identical baseline environments, and
// collects what stage 1 renders into its scratch (chunkRenderer).
func RenderChunks(n *jsonld.Normalized, chunkTokens int) []retrieval.Chunk {
	var r chunkRenderer
	var a retrieval.ChunkArena
	r.render(&a, n, chunkTokens)
	return a.Chunks(nil)
}

// chunkRenderer renders a file's chunks into a retrieval.ChunkArena over
// buffers it keeps from one file to the next: the file's verbalised records,
// where each ends, and the name stack of the record walk.
type chunkRenderer struct {
	text []byte
	ends []int
	name []byte
}

// subjectKeys are the properties that name a structured record's subject, in
// order of preference.
var subjectKeys = [...]string{"@key", "name", "title", "id", "flight", "symbol", "subject"}

// rawText returns a text record's paragraphs, which are chunked as they are.
func rawText(doc *jsonld.Document) (string, bool) {
	v, ok := doc.Get("text")
	return v.Str, ok && v.Str != ""
}

// render appends n's chunks to a, each record's packed into chunks of at most
// chunkTokens tokens (retrieval.ChunkArena.AppendText): a text record's raw
// paragraphs, a structured record's verbalised sentences. The file's
// verbalised records become one string, which AppendText splits and counts
// tokens in: the one allocation render makes once its buffers have grown.
func (r *chunkRenderer) render(a *retrieval.ChunkArena, n *jsonld.Normalized, chunkTokens int) {
	r.text, r.ends = r.text[:0], r.ends[:0]
	for _, doc := range n.JSC {
		if _, ok := rawText(doc); !ok {
			r.text = r.verbalise(r.text, doc)
		}
		r.ends = append(r.ends, len(r.text))
	}
	verbalised := string(r.text)
	src := a.AppendString(n.Source)
	lo := 0
	for i, doc := range n.JSC {
		text, ok := rawText(doc)
		if !ok {
			text = verbalised[lo:r.ends[i]]
		}
		lo = r.ends[i]
		a.AppendText(doc.ID, src, text, chunkTokens)
	}
}

// verbalise appends a structured record's sentences to dst: "The <name> of
// <subject> is <value>." for each value of each property but the subject's
// own and @key, where a nested record's property names are prefixed by the
// names of the properties that lead to it, and '_' reads as a space. A
// native-KG record (predicate and object) is the one sentence of its
// predicate. A record without a subject appends nothing. The sentences need
// no space between them: each ends in '.', where AppendText splits and trims.
func (r *chunkRenderer) verbalise(dst []byte, doc *jsonld.Document) []byte {
	subject := ""
	for _, key := range subjectKeys {
		if v, ok := doc.Get(key); ok && v.Str != "" {
			subject = v.Str
			break
		}
	}
	if subject == "" {
		return dst
	}
	r.name = r.name[:0]
	if p, ok := doc.Get("predicate"); ok {
		if o, ok := doc.Get("object"); ok {
			r.name = appendName(r.name, p.Str)
			return appendSentence(dst, r.name, subject, o.Str)
		}
	}
	return r.walk(dst, doc, subject)
}

// walk appends the sentences of d's properties, in key order, to dst, r.name
// holding the names of the properties that lead to d.
func (r *chunkRenderer) walk(dst []byte, d *jsonld.Document, subject string) []byte {
	prefix := len(r.name)
	for i := range d.Props {
		v := &d.Props[i]
		k := v.Key
		name := strings.TrimPrefix(k, "@")
		if j := strings.IndexByte(name, '/'); j >= 0 {
			name = name[:j]
		}
		r.name = r.name[:prefix]
		if prefix > 0 {
			r.name = append(r.name, ' ')
		}
		r.name = appendName(r.name, name)
		if v.Node != nil {
			dst = r.walk(dst, v.Node, subject)
			continue
		}
		if k == "@key" || (prefix == 0 && v.Str == subject) {
			continue
		}
		if v.List != nil {
			for _, val := range v.List {
				dst = appendSentence(dst, r.name, subject, val)
			}
		} else if v.Str != "" {
			dst = appendSentence(dst, r.name, subject, v.Str)
		}
	}
	r.name = r.name[:prefix]
	return dst
}

// appendName appends a property name with each '_' read as a space.
func appendName(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' {
			c = ' '
		}
		dst = append(dst, c)
	}
	return dst
}

// appendSentence appends "The <name> of <subject> is <val>.".
func appendSentence(dst, name []byte, subject, val string) []byte {
	dst = append(dst, "The "...)
	dst = append(dst, name...)
	dst = append(dst, " of "...)
	dst = append(dst, subject...)
	dst = append(dst, " is "...)
	dst = append(dst, val...)
	return append(dst, '.')
}
