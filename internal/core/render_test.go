package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/extract"
	"multirag/internal/jsonld"
	"multirag/internal/retrieval"
	"multirag/internal/textutil"
)

// refRenderChunks is chunk rendering as it was written before stage 1
// rendered into its pooled scratch: each record verbalised into a string of
// fmt-built sentences, split into a slice of sentences and packed into chunks
// of joined strings. It is the oracle the arena renderer is held to byte for
// byte, and the record oracle's independent view of a file's chunks.
func refRenderChunks(n *jsonld.Normalized, chunkTokens int) []retrieval.Chunk {
	var out []retrieval.Chunk
	for _, doc := range n.JSC {
		if v, ok := doc.Get("text"); ok && v.Str != "" {
			out = append(out, refChunkText(doc.ID, n.Source, v.Str, chunkTokens)...)
			continue
		}
		text := refVerbalise(doc)
		if text != "" {
			out = append(out, refChunkText(doc.ID, n.Source, text, chunkTokens)...)
		}
	}
	return out
}

// refVerbalise renders a structured record as sentences.
func refVerbalise(doc *jsonld.Document) string {
	subject := ""
	for _, key := range []string{"@key", "name", "title", "id", "flight", "symbol", "subject"} {
		if v, ok := doc.Get(key); ok && v.Str != "" {
			subject = v.Str
			break
		}
	}
	if subject == "" {
		return ""
	}
	if p, ok := doc.Get("predicate"); ok {
		if o, oko := doc.Get("object"); oko {
			return fmt.Sprintf("The %s of %s is %s.",
				strings.ReplaceAll(p.Str, "_", " "), subject, o.Str)
		}
	}
	var sents []string
	var walk func(d *jsonld.Document, prefix string)
	walk = func(d *jsonld.Document, prefix string) {
		for _, p := range d.Props {
			k, v := p.Key, p.Value
			name := strings.TrimPrefix(k, "@")
			if i := strings.IndexByte(name, '/'); i >= 0 {
				name = name[:i]
			}
			if prefix != "" {
				name = prefix + " " + name
			}
			if v.Node != nil {
				walk(v.Node, name)
				continue
			}
			if k == "@key" || (prefix == "" && v.Str == subject) {
				continue
			}
			for _, val := range v.Strings() {
				sents = append(sents, fmt.Sprintf("The %s of %s is %s.",
					strings.ReplaceAll(name, "_", " "), subject, val))
			}
		}
	}
	walk(doc, "")
	return strings.Join(sents, " ")
}

// refChunkText splits text into chunks of at most maxTokens tokens, breaking
// at sentence boundaries where possible; maxTokens <= 0 selects 64.
func refChunkText(docID, source, text string, maxTokens int) []retrieval.Chunk {
	if maxTokens <= 0 {
		maxTokens = 64
	}
	var sentences []string
	for _, part := range strings.FieldsFunc(text, func(r rune) bool { return r == '.' || r == '\n' }) {
		if part = strings.TrimSpace(part); part != "" {
			sentences = append(sentences, part)
		}
	}
	var chunks []retrieval.Chunk
	var buf []string
	used := 0
	flush := func() {
		if len(buf) == 0 {
			return
		}
		chunks = append(chunks, retrieval.Chunk{
			ID:     docID + "#c" + strconv.Itoa(len(chunks)),
			DocID:  docID,
			Source: source,
			Text:   strings.Join(buf, ". ") + ".",
		})
		buf = nil
		used = 0
	}
	for _, s := range sentences {
		n := textutil.CountTokens(s)
		if used+n > maxTokens && used > 0 {
			flush()
		}
		buf = append(buf, s)
		used += n
	}
	flush()
	return chunks
}

// checkRender fails t unless RenderChunks, and ChunkArena.AppendText on
// every text record, match the reference renderer byte for byte.
func checkRender(t *testing.T, n *jsonld.Normalized, chunkTokens int) {
	t.Helper()
	got, want := RenderChunks(n, chunkTokens), refRenderChunks(n, chunkTokens)
	if !slices.Equal(got, want) {
		for i := range max(len(got), len(want)) {
			var g, w retrieval.Chunk
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("file %s: chunk %d of %d (reference %d) is %+v, reference %+v", n.ID, i, len(got), len(want), g, w)
			}
		}
	}
	for _, doc := range n.JSC {
		if v, ok := doc.Get("text"); ok {
			var a retrieval.ChunkArena
			a.AppendText(doc.ID, a.AppendString(n.Source), v.Str, chunkTokens)
			if got, want := a.Chunks(nil), refChunkText(doc.ID, n.Source, v.Str, chunkTokens); !slices.Equal(got, want) {
				t.Fatalf("AppendText(%q) = %+v, reference %+v", v.Str, got, want)
			}
		}
	}
}

// record builds a document one property at a time into the form the
// adapters' records take: properties in key order, each key holding the
// value set last.
type record struct{ *jsonld.Document }

func newRecord(id, typ string) record { return record{&jsonld.Document{ID: id, Type: typ}} }

func (r record) put(key string, v jsonld.Value) {
	i := sort.Search(len(r.Props), func(i int) bool { return r.Props[i].Key >= key })
	if i < len(r.Props) && r.Props[i].Key == key {
		r.Props[i].Value = v
		return
	}
	r.Props = slices.Insert(r.Props, i, jsonld.Prop{Key: key, Value: v})
}

func (r record) Set(key, val string)               { r.put(key, jsonld.Value{Str: val}) }
func (r record) SetList(key string, vals []string) { r.put(key, jsonld.Value{List: vals}) }
func (r record) SetNode(key string, node record)   { r.put(key, jsonld.Value{Node: node.Document}) }

// handBuiltRecords are the record shapes the generated corpora do not reach:
// separators and Unicode spaces inside values, empty values and lists, nested
// nodes, '/' in keys and '_' in names, native-KG and text records, and a
// sentence over the chunk budget.
func handBuiltRecords() *jsonld.Normalized {
	long := strings.TrimSpace(strings.Repeat("word ", 70))
	a := newRecord("f#r0", "Flight")
	a.Set("@key", "CA981")
	a.Set("status", "Delayed. Really\nlate")
	a.Set("gate", " G3\u0085")
	a.Set("note", "")
	a.SetList("crew", []string{})
	a.SetList("stops", []string{"PEK", "", "CA981", "a.b.c"})
	a.Set("departure_time", "10:05 . \n .")
	a.Set("flight", "CA981")
	home := newRecord("f#r0/home", "Place")
	home.Set("street_name", "Main St.")
	home.Set("city", "CA981")
	inner := newRecord("f#r0/home/in", "Place")
	inner.Set("zip_code", "10001")
	home.SetNode("@inner/x", inner)
	a.SetNode("home/addr", home)
	anon := newRecord("f#r0/anon", "")
	anon.Set("x", "CA981")
	a.SetNode("@", anon)
	a.put("both", jsonld.Value{Str: "s", List: []string{"l1", "l2"}})
	a.Set("summary", long)

	b := newRecord("f#r1", "")
	b.Set("subject", "Item_9")
	b.Set("predicate", "has_part/x")
	b.Set("object", "Gear. Box")
	b.Set("extra", "ignored")

	c := newRecord("f#r2", "Paragraph")
	c.Set("text", "First line.\nSecond line . . Third line\u0085. "+long+". Tail")

	d := newRecord("f#r3", "")
	d.Set("status", "no subject")

	e := newRecord("f#r4", "")
	e.Set("name", "Empty text")
	e.Set("text", "")
	e.SetList("tags", nil)

	f := newRecord("f#r5", "")
	f.Set("@key", "K")
	f.Set("name", "N")
	f.Set("predicate", "p")
	g := newRecord("f#r6", "")
	g.Set("title", "T")
	g.Set("predicate", "p")
	g.SetNode("object", newRecord("o", ""))
	return &jsonld.Normalized{ID: "hand", Source: "src/1", JSC: []*jsonld.Document{a.Document, b.Document, c.Document, d.Document, e.Document, f.Document, g.Document}}
}

// TestRenderChunksMatchesReference holds the arena renderer to the reference
// one byte for byte over every datasets preset, both QA corpora and the
// hand-built records, at the chunk budget and at a small one.
func TestRenderChunksMatchesReference(t *testing.T) {
	var files []adapter.RawFile
	for _, spec := range datasets.AllPresets(1) {
		files = append(files, datasets.MustGenerate(spec).Files...)
	}
	for _, spec := range []datasets.QASpec{datasets.Hotpot(1), datasets.TwoWiki(1)} {
		spec.Questions = 40
		for _, doc := range datasets.GenerateQA(spec).Docs {
			files = append(files, adapter.RawFile{Domain: "wiki", Source: doc.Source, Name: doc.ID, Format: "text", Content: []byte(doc.Text)})
		}
	}
	fused, err := adapter.NewRegistry().Fuse(files)
	if err != nil {
		t.Fatal(err)
	}
	fused = append(fused, handBuiltRecords())
	chunks := 0
	for _, n := range fused {
		for _, budget := range []int{chunkBudget, 5, 0} {
			checkRender(t, n, budget)
		}
		chunks += len(RenderChunks(n, chunkBudget))
	}
	t.Logf("%d files, %d chunks", len(fused), chunks)
}

// FuzzRenderChunks holds the arena renderer to the reference one on one
// record built from fuzzed keys and values — as a flat record, with a nested
// node and a list, and as a text record — at a fuzzed budget.
func FuzzRenderChunks(f *testing.F) {
	f.Add("CA981", "status", "Delayed. Late\n", "home/x_y", "Main St.|PEK", uint8(64))
	f.Add(" ", "@key", "", "@", "\u0085|.", uint8(1))
	f.Add("Item_9", "predicate", "has_part", "object", "Gear. Box", uint8(0))
	f.Add("x\xffy", "a\xe4", "\xb8.", "_", strings.Repeat("w ", 80), uint8(7))
	f.Fuzz(func(t *testing.T, subject, k1, v1, k2, v2 string, budget uint8) {
		doc := newRecord("f#r0", "")
		doc.Set("name", subject)
		doc.Set(k1, v1)
		node := newRecord("f#r0/n", "")
		node.Set(k1, subject)
		node.SetList(k2, strings.Split(v2, "|"))
		doc.SetNode(k2, node)
		flat := newRecord("f#r1", "")
		flat.Set("@key", subject)
		flat.Set(k1, v1)
		flat.Set(k2, v2)
		text := newRecord("f#r2", "")
		text.Set("text", v1+v2)
		checkRender(t, &jsonld.Normalized{ID: "fuzz", Source: k2, JSC: []*jsonld.Document{doc.Document, flat.Document, text.Document}}, int(budget))
	})
}

// structuredFile fuses a CSV file of records rows, each verbalised into a
// few sentences.
func structuredFile(t *testing.T, records int) *jsonld.Normalized {
	t.Helper()
	var b strings.Builder
	b.WriteString("name,status,gate,departure_time,aircraft_type\n")
	for i := range records {
		fmt.Fprintf(&b, "Flight CA%d,Delayed,G%d,10:%02d,Airbus A%d\n", 900+i, i%13, i%60, 300+i%50)
	}
	fused, err := adapter.NewRegistry().Fuse([]adapter.RawFile{{Domain: "flights", Source: "radar", Name: "feed", Format: "csv", Content: []byte(b.String())}})
	if err != nil {
		t.Fatal(err)
	}
	return fused[0]
}

// TestPrepareFileAllocCeiling: rendering, embedding and encoding one
// structured file into its pooled scratch allocates a constant number of
// objects — the verbalised records' and the chunks' strings, the part and the
// rows — however many records and chunks the file holds. Rendered by
// refRenderChunks instead, the same step allocates 73 objects for the
// 2-record file and 6,812 for the 200-record one, 34 per chunk (x86-64, Go
// 1.24).
func TestPrepareFileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	const slack = 2 // objects a 200-record file may take beyond a 2-record one
	sc := getEmbedScratch(retrieval.DefaultDim)
	defer putEmbedScratch(sc)
	rec := extract.NewRecorder()
	measure := func(n *jsonld.Normalized) (allocs float64, chunks int) {
		allocs = testing.AllocsPerRun(20, func() {
			c := sc.renderChunks(n)
			chunks = len(c)
			encodeFile(rec, c, sc)
			sc.dropChunks()
		})
		return allocs, chunks
	}
	small, smallChunks := measure(structuredFile(t, 2))
	large, largeChunks := measure(structuredFile(t, 200))
	t.Logf("2 records, %d chunks: %.0f objects; 200 records, %d chunks: %.0f objects", smallChunks, small, largeChunks, large)
	if largeChunks < 100*smallChunks {
		t.Fatalf("the large file rendered %d chunks, the small one %d", largeChunks, smallChunks)
	}
	if large > small+slack {
		t.Fatalf("a prepared file's allocations grow with its chunks: %.0f objects for %d chunks, %.0f for %d", large, largeChunks, small, smallChunks)
	}
}
