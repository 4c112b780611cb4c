package multirag

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"multirag/internal/datasets"
)

// The ceiling TestIngestRetainedBytesCeiling and FuzzIngestRetainedBytes hold
// every request to: the heap a system retains for it is at most
// ingestAmplification times its bytes plus ingestRetainedSlack.
const (
	ingestAmplification = 160     // retained bytes per request byte
	ingestRetainedSlack = 1 << 20 // bytes, whatever the request
)

// requestBytes is what a caller hands IngestFiles for files: every
// identifier, Meta key and value, and the content.
func requestBytes(files []File) int64 {
	n := 0
	for _, f := range files {
		n += len(f.Domain) + len(f.Source) + len(f.Name) + len(f.Format) + len(f.Content)
		for k, v := range f.Meta {
			n += len(k) + len(v)
		}
	}
	return int64(n)
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// retainedByIngest ingests files into a fresh system as one call and returns
// the heap the system retains for them once collected, or the error that
// refused them. The files stay live across both readings, so their own bytes
// are not counted.
func retainedByIngest(files []File) (int64, error) {
	sys := Open(Config{Seed: 1, Workers: 2})
	before := liveHeap()
	if err := sys.IngestFiles(files...); err != nil {
		return 0, err
	}
	retained := liveHeap() - before
	runtime.KeepAlive(files)
	runtime.KeepAlive(sys)
	return retained, nil
}

// checkRetained ingests files, fails t if they are refused, and reports
// whether they retain more than the ceiling allows.
func checkRetained(t *testing.T, name string, files []File) {
	t.Helper()
	req := requestBytes(files)
	got, err := retainedByIngest(files)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Logf("%s: %d B request, %d B retained (%.1f per byte)", name, req, got, float64(got)/float64(req))
	if limit := ingestAmplification*req + ingestRetainedSlack; got > limit {
		t.Errorf("%s: a %d-byte request retains %d B, over %d × %d + %d", name, req, got, ingestAmplification, req, ingestRetainedSlack)
	}
}

// honestFiles is every datasets preset's corpus at seed 1.
func honestFiles() []File {
	var files []File
	for _, spec := range datasets.AllPresets(1) {
		for _, f := range datasets.MustGenerate(spec).Files {
			files = append(files, File{Domain: f.Domain, Source: f.Source, Name: f.Name, Format: f.Format, Meta: f.Meta, Content: f.Content})
		}
	}
	return files
}

// hostileShapes are valid requests shaped to make the engine keep much more
// than they carry: identifiers at the facade's limit over one-word rows, a
// header of hundreds of columns, records nested to the adapters' limit under
// 1 KiB names, and a thousand records under one 100,000-byte name, which
// every record's ID (and a JSON list member's key) spelled whole.
func hostileShapes() map[string][]File {
	long := func(c byte) string { return strings.Repeat(string(c), maxIdentifierBytes) }
	var words strings.Builder
	for i := 0; words.Len() < 64<<10; i++ {
		fmt.Fprintf(&words, "w%d\n", i)
	}
	var header, row strings.Builder
	for i := 0; i < 600; i++ {
		if i > 0 {
			header.WriteByte(',')
			row.WriteByte(',')
		}
		fmt.Fprintf(&header, "c%d", i)
		fmt.Fprintf(&row, "v%d", i)
	}
	// Records nested as deep as the adapters accept, 32 levels: the
	// outermost JSON object and 31 within it; the XML root, its record, 29
	// elements and their name leaves.
	var js, xs strings.Builder
	js.WriteString(`[{"name":"root"`)
	xs.WriteString("<root><rec><name>root</name>")
	for i := 0; i < 31; i++ {
		fmt.Fprintf(&js, `,"%s":{"name":"n%d"`, long('k'), i)
	}
	for i := 0; i < 29; i++ {
		fmt.Fprintf(&xs, "<%s><name>n%d</name>", long('k'), i)
	}
	js.WriteString(strings.Repeat("}", 32) + "]")
	for i := 0; i < 29; i++ {
		fmt.Fprintf(&xs, "</%s>", long('k'))
	}
	xs.WriteString("</rec></root>")
	huge := strings.Repeat("k", 100_000)
	longJSON := `{"name":"x","` + huge + `":[` + strings.Repeat(`{"v":"1"},`, 999) + `{"v":"1"}]}`
	longXML := "<root><rec><name>x</name><" + huge + ">" + strings.Repeat("<c><v>1</v></c>", 1000) + "</" + huge + "></rec></root>"
	ids := func(format, content string) []File {
		return []File{{Domain: long('d'), Source: long('s'), Name: long('n'), Format: format,
			Meta: map[string]string{"type": long('t'), long('k'): long('v')}, Content: []byte(content)}}
	}
	return map[string][]File{
		"identifiers at the limit, one-word CSV rows":   ids("csv", "key,value\n"+strings.ReplaceAll(words.String(), "\n", ",v\n")),
		"identifiers at the limit, one-word paragraphs": ids("text", strings.ReplaceAll(words.String(), "\n", "\n\n")),
		"identifiers at the limit, one-word kg lines":   ids("kg", strings.ReplaceAll(words.String(), "\n", "|p|o\n")),
		"600-column CSV header": {{Domain: "wide", Source: "s", Name: "n", Format: "csv",
			Content: []byte(header.String() + "\n" + strings.Repeat(row.String()+"\n", 8))}},
		"JSON nested to the limit":                            {{Domain: "deep", Source: "s", Name: "n", Format: "json", Content: []byte(js.String())}},
		"XML nested to the limit":                             {{Domain: "deep", Source: "s", Name: "n", Format: "xml", Content: []byte(xs.String())}},
		"JSON list of 1,000 objects under a 100,000-byte key": {{Domain: "long", Source: "s", Name: "n", Format: "json", Content: []byte(longJSON)}},
		"XML 1,000 children under a 100,000-byte name":        {{Domain: "long", Source: "s", Name: "n", Format: "xml", Content: []byte(longXML)}},
	}
}

// TestIngestRetainedBytesCeiling bounds what a request costs the heap by its
// size: for every hostile shape, the heap a system retains after ingesting it
// is at most ingestAmplification times the request's bytes plus
// ingestRetainedSlack.
//
// The datasets presets retain about 14 bytes per request byte. The hostile
// shapes retain up to about 135 (one-word CSV rows under 1 KiB identifiers),
// because every row pays a record's fixed cost whatever its size: an entity,
// a triple, a chunk and its vector, their postings, and record IDs that spell
// out up to 64 bytes of each identifier — about 960 B for an 8-byte row. k
// is set above that. What it catches is a cost that grows faster than the
// request: each row keeping a copy of its file's whole identifiers retained
// about 1,200 bytes per request byte, records nested 2,000 deep over 300, and
// a thousand records each spelling a 100,000-byte name whole in their IDs,
// keys and property paths about 1,900 (a JSON list under a long key) and 960
// (XML children under a long element name), where they now retain under 4.
func TestIngestRetainedBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	honest := honestFiles()
	req := requestBytes(honest)
	got, err := retainedByIngest(honest)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("datasets presets: %d B request, %d B retained (%.1f per byte)", req, got, float64(got)/float64(req))
	for name, files := range hostileShapes() {
		checkRetained(t, name, files)
	}
}

// shape is one file as FuzzIngestRetainedBytes varies it.
type shape struct {
	format  string // csv, text, kg, json or xml
	idLen   int    // bytes of each identifier and of the Meta pair's key and values
	keyLen  int    // bytes of the long name: a CSV column, a kg predicate, a JSON key or an XML element
	listLen int    // JSON list members or XML children under the long name
	depth   int    // JSON or XML records nested, each under the long name
	width   int    // CSV columns, words per paragraph, or fields per list member
	rows    int    // CSV rows, paragraphs, kg lines, or JSON or XML top-level records
	valLen  int    // bytes of each value past its digits
}

// maxShapeBytes is the largest file FuzzIngestRetainedBytes ingests.
const maxShapeBytes = 256 << 10

// file builds the shape's one file, or reports false once its content grows
// past maxShapeBytes. Every value is distinct: its ordinal's digits, then
// valLen 'v's.
func (sh shape) file() (File, bool) {
	name := strings.Repeat("k", sh.keyLen)
	pad := strings.Repeat("v", sh.valLen)
	n := 0
	val := func() string { n++; return strconv.Itoa(n) + pad }
	var b strings.Builder
	over := func() bool { return b.Len() > maxShapeBytes }
	switch sh.format {
	case "csv":
		b.WriteString(name)
		for j := 1; j < sh.width; j++ {
			fmt.Fprintf(&b, ",c%d", j)
		}
		for range sh.rows {
			if over() {
				return File{}, false
			}
			b.WriteByte('\n')
			for j := range sh.width {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(val())
			}
		}
		b.WriteByte('\n')
	case "text":
		for range sh.rows {
			if over() {
				return File{}, false
			}
			for j := range sh.width {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString("w" + val())
			}
			b.WriteString("\n\n")
		}
	case "kg":
		for i := 0; i < sh.rows && !over(); i++ {
			fmt.Fprintf(&b, "s%d|%s|%s\n", i, name, val())
		}
	case "json":
		b.WriteByte('[')
		for i := range sh.rows {
			if over() {
				return File{}, false
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"name":"r%d"`, i)
			for d := range sh.depth {
				fmt.Fprintf(&b, `,"%s":{"name":"n%d"`, name, d)
			}
			if sh.listLen > 0 {
				fmt.Fprintf(&b, `,"%s":[`, name)
				for m := range sh.listLen {
					if over() {
						return File{}, false
					}
					if m > 0 {
						b.WriteByte(',')
					}
					b.WriteByte('{')
					for j := range sh.width {
						if j > 0 {
							b.WriteByte(',')
						}
						fmt.Fprintf(&b, `"f%d":"%s"`, j, val())
					}
					b.WriteByte('}')
				}
				b.WriteByte(']')
			}
			b.WriteString(strings.Repeat("}", sh.depth+1))
		}
		b.WriteByte(']')
	case "xml":
		b.WriteString("<root>")
		for i := range sh.rows {
			if over() {
				return File{}, false
			}
			fmt.Fprintf(&b, "<rec><name>r%d</name>", i)
			for d := range sh.depth {
				fmt.Fprintf(&b, "<%s><name>n%d</name>", name, d)
			}
			if sh.listLen > 0 {
				fmt.Fprintf(&b, "<%s>", name)
				for range sh.listLen {
					if over() {
						return File{}, false
					}
					b.WriteString("<c>")
					for j := range sh.width {
						fmt.Fprintf(&b, "<f%d>%s</f%d>", j, val(), j)
					}
					b.WriteString("</c>")
				}
				fmt.Fprintf(&b, "</%s>", name)
			}
			b.WriteString(strings.Repeat("</"+name+">", sh.depth) + "</rec>")
		}
		b.WriteString("</root>")
	}
	if over() {
		return File{}, false
	}
	id := func(c byte) string { return strings.Repeat(string(c), sh.idLen) }
	return File{Domain: id('d'), Source: id('s'), Name: id('n'), Format: sh.format,
		Meta: map[string]string{"type": id('t'), id('k'): id('v')}, Content: []byte(b.String())}, true
}

// shapeFormats are the formats FuzzIngestRetainedBytes picks from.
var shapeFormats = []string{"csv", "text", "kg", "json", "xml"}

// FuzzIngestRetainedBytes looks for the next amplification: a request whose
// retained heap outgrows TestIngestRetainedBytesCeiling's bound. The input
// picks one file's shape — format, identifier length, long-name length, list
// length, nesting depth, row width, row count and value length — of at most
// maxShapeBytes; a request the facade or an adapter refuses retains nothing
// and passes. The seeds are the ceiling's hostile shapes, a CSV header with
// a long column name over many rows, and kg lines repeating a long
// predicate. A shape it finds belongs in hostileShapes as a named case.
func FuzzIngestRetainedBytes(f *testing.F) {
	for _, sh := range []shape{
		{format: "csv", idLen: maxIdentifierBytes, keyLen: 3, width: 2, rows: 9000},   // identifiers at the limit, one-word CSV rows
		{format: "text", idLen: maxIdentifierBytes, width: 1, rows: 9000},             // identifiers at the limit, one-word paragraphs
		{format: "kg", idLen: maxIdentifierBytes, keyLen: 1, rows: 9000},              // identifiers at the limit, one-word kg lines
		{format: "csv", idLen: 1, keyLen: 2, width: 600, rows: 8},                     // 600-column CSV header
		{format: "json", idLen: 1, keyLen: maxIdentifierBytes, depth: 31, rows: 1},    // JSON nested to the limit
		{format: "xml", idLen: 1, keyLen: maxIdentifierBytes, depth: 29, rows: 1},     // XML nested to the limit
		{format: "json", idLen: 1, keyLen: 100_000, listLen: 1000, width: 1, rows: 1}, // JSON list under a 100,000-byte key
		{format: "xml", idLen: 1, keyLen: 100_000, listLen: 1000, width: 1, rows: 1},  // XML children under a 100,000-byte name
		{format: "csv", idLen: 1, keyLen: 100_000, width: 2, rows: 2000},              // CSV, a long column name over many rows
		{format: "kg", idLen: 1, keyLen: 2000, rows: 100},                             // kg lines repeating a long predicate
	} {
		f.Add(uint8(slices.Index(shapeFormats, sh.format)), uint16(sh.idLen-1), uint32(sh.keyLen), uint16(sh.listLen),
			uint8(sh.depth), uint16(sh.width), uint16(sh.rows), uint16(sh.valLen))
	}
	f.Fuzz(func(t *testing.T, format uint8, idLen uint16, keyLen uint32, listLen uint16, depth uint8, width, rows, valLen uint16) {
		if raceEnabled {
			t.Skip("-race instrumentation changes heap sizes")
		}
		sh := shape{
			format:  shapeFormats[int(format)%len(shapeFormats)],
			idLen:   1 + int(idLen)%maxIdentifierBytes,
			keyLen:  max(1, int(keyLen)%(maxShapeBytes/2)),
			listLen: int(listLen) % 4096,
			depth:   int(depth) % 40,
			width:   max(1, int(width)%1024),
			rows:    int(rows) % 20_000,
			valLen:  int(valLen) % 1024,
		}
		file, ok := sh.file()
		if !ok {
			t.Skip("shape over the size cap")
		}
		files := []File{file}
		req := requestBytes(files)
		got, err := retainedByIngest(files)
		if err != nil {
			t.Logf("%+v: refused: %v", sh, err)
			return // nothing retained
		}
		t.Logf("%+v: %d B request, %d B retained (%.1f per byte)", sh, req, got, float64(got)/float64(req))
		if limit := ingestAmplification*req + ingestRetainedSlack; got > limit {
			t.Errorf("%+v: a %d-byte request retains %d B, over %d × %d + %d", sh, req, got, ingestAmplification, req, ingestRetainedSlack)
		}
	})
}
