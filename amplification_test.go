package multirag

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"multirag/internal/datasets"
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
// the heap the system retains for them once collected. The files stay live
// across both readings, so their own bytes are not counted.
func retainedByIngest(t *testing.T, files []File) int64 {
	t.Helper()
	sys := Open(Config{Seed: 1, Workers: 2})
	before := liveHeap()
	if err := sys.IngestFiles(files...); err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(files)
	runtime.KeepAlive(sys)
	return retained
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
	const (
		ingestAmplification = 160     // retained bytes per request byte
		ingestRetainedSlack = 1 << 20 // bytes, whatever the request
	)
	honest := honestFiles()
	req := requestBytes(honest)
	got := retainedByIngest(t, honest)
	t.Logf("datasets presets: %d B request, %d B retained (%.1f per byte)", req, got, float64(got)/float64(req))
	for name, files := range hostileShapes() {
		req := requestBytes(files)
		got := retainedByIngest(t, files)
		t.Logf("%s: %d B request, %d B retained (%.1f per byte)", name, req, got, float64(got)/float64(req))
		if limit := ingestAmplification*req + ingestRetainedSlack; got > limit {
			t.Errorf("%s: a %d-byte request retains %d B, over %d × %d + %d", name, req, got, ingestAmplification, req, ingestRetainedSlack)
		}
	}
}
