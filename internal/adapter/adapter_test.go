package adapter

import (
	"strings"
	"testing"
)

func TestStructuredCSV(t *testing.T) {
	f := RawFile{
		Domain: "movies", Source: "imdb", Name: "top", Format: "csv",
		Meta:    map[string]string{"year": "2024"},
		Content: []byte("title,director,year\nHeat,Michael Mann,1995\nInception,Christopher Nolan,\n"),
	}
	n, err := Structured{}.Parse(f)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Records() != 2 {
		t.Fatalf("records = %d", n.Records())
	}
	if v, _ := n.JSC[0].Get("@key"); v.Str != "Heat" {
		t.Fatalf("key = %q", v.Str)
	}
	if v, _ := n.JSC[0].Get("director"); v.Str != "Michael Mann" {
		t.Fatalf("director = %q", v.Str)
	}
	// The empty year in row 1 sets no property.
	if _, ok := n.JSC[1].Get("year"); ok {
		t.Fatal("empty cell became a year property")
	}
	if n.Meta["year"] != "2024" {
		t.Fatal("meta lost")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestStructuredCSVErrors(t *testing.T) {
	if _, err := (Structured{}).Parse(RawFile{Format: "csv", Content: []byte("")}); err == nil {
		t.Fatal("empty csv must error")
	}
	if _, err := (Structured{}).Parse(RawFile{Format: "csv", Content: []byte("onlykey\nv\n")}); err == nil {
		t.Fatal("csv without attribute columns must error")
	}
	// A header that repeats a column name is rejected by name, and the
	// rejection reaches callers of Fuse.
	dup := RawFile{Domain: "d", Source: "s", Name: "n", Format: "csv", Content: []byte("title,year,director,year\nHeat,1995,Mann,1996\n")}
	if _, err := NewRegistry().Fuse([]RawFile{dup}); err == nil || !strings.Contains(err.Error(), `"year"`) {
		t.Fatalf("duplicate header column must fail Fuse naming it, got %v", err)
	}
}

func TestSemiJSONNested(t *testing.T) {
	content := `[{"name":"CA981","status":{"state":"Delayed","reason":"Weather"},"codes":["PEK","JFK"]}]`
	n, err := SemiJSON{}.Parse(RawFile{Domain: "flights", Source: "app", Name: "live", Format: "json", Content: []byte(content)})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Records() != 1 {
		t.Fatalf("records = %d", n.Records())
	}
	doc := n.JSC[0]
	if v, _ := doc.Get("name"); v.Str != "CA981" {
		t.Fatalf("name = %q", v.Str)
	}
	status, _ := doc.Get("status")
	if status.Node == nil {
		t.Fatal("nested object must become sub-node")
	}
	if v, _ := status.Node.Get("state"); v.Str != "Delayed" {
		t.Fatalf("state = %q", v.Str)
	}
	if codes, _ := doc.Get("codes"); len(codes.List) != 2 {
		t.Fatalf("codes = %v", codes)
	}
}

func TestSemiJSONSingleObjectAndErrors(t *testing.T) {
	n, err := SemiJSON{}.Parse(RawFile{Domain: "d", Source: "s", Name: "n", Format: "json", Content: []byte(`{"a":1}`)})
	if err != nil || n.Records() != 1 {
		t.Fatalf("single object: %v / %d", err, n.Records())
	}
	if _, err := (SemiJSON{}).Parse(RawFile{Format: "json", Content: []byte(`"scalar"`)}); err == nil {
		t.Fatal("scalar top level must error")
	}
	if _, err := (SemiJSON{}).Parse(RawFile{Format: "json", Content: []byte(`{bad`)}); err == nil {
		t.Fatal("malformed json must error")
	}
}

func TestSemiXML(t *testing.T) {
	content := `<books>
  <book isbn="1"><title>Dune</title><author>Frank Herbert</author></book>
  <book isbn="2"><title>Hyperion</title><author>Dan Simmons</author><author>Someone Else</author></book>
</books>`
	n, err := SemiXML{}.Parse(RawFile{Domain: "books", Source: "lib", Name: "cat", Format: "xml", Content: []byte(content)})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Records() != 2 {
		t.Fatalf("records = %d", n.Records())
	}
	if v, _ := n.JSC[0].Get("title"); v.Str != "Dune" {
		t.Fatalf("title = %q", v.Str)
	}
	if v, _ := n.JSC[0].Get("@isbn"); v.Str != "1" {
		t.Fatalf("attr = %q", v.Str)
	}
	if v, _ := n.JSC[1].Get("author"); len(v.List) != 2 {
		t.Fatalf("repeated elements must form a list: %v", v)
	}
}

func TestUnstructuredParagraphs(t *testing.T) {
	content := "Typhoon Haikui impacts PEK departures after 14:00.\n\nThe status of CA981 is Delayed."
	n, err := Unstructured{}.Parse(RawFile{Domain: "flights", Source: "news", Name: "alerts", Format: "text", Content: []byte(content)})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Records() != 2 {
		t.Fatalf("records = %d", n.Records())
	}
	if _, err := (Unstructured{}).Parse(RawFile{Format: "text", Content: []byte("  ")}); err == nil {
		t.Fatal("empty text must error")
	}
}

func TestKGFormat(t *testing.T) {
	content := "Heat|director|Michael Mann\nHeat|year|1995\n"
	n, err := KGFormat{}.Parse(RawFile{Domain: "movies", Source: "kgsrc", Name: "facts", Format: "kg", Content: []byte(content)})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Records() != 2 {
		t.Fatalf("records = %d", n.Records())
	}
	if v, _ := n.JSC[0].Get("predicate"); v.Str != "director" {
		t.Fatalf("predicate = %q", v.Str)
	}
	if _, err := (KGFormat{}).Parse(RawFile{Format: "kg", Content: []byte("only|two")}); err == nil {
		t.Fatal("malformed triple line must error")
	}
}

func TestRegistryFuse(t *testing.T) {
	r := NewRegistry()
	files := []RawFile{
		{Domain: "movies", Source: "b-src", Name: "t", Format: "csv", Content: []byte("t,d\nHeat,Mann\n")},
		{Domain: "movies", Source: "a-src", Name: "t", Format: "kg", Content: []byte("Heat|year|1995")},
	}
	out, err := r.Fuse(files)
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("fused = %d", len(out))
	}
	if out[0].Source != "a-src" {
		t.Fatalf("fusion output must be ordered by source, got %q first", out[0].Source)
	}
}

func TestFuseUnknownFormat(t *testing.T) {
	r := NewRegistry()
	_, err := r.Fuse([]RawFile{{Domain: "d", Source: "s", Name: "n", Format: "parquet"}})
	if err == nil || !strings.Contains(err.Error(), "parquet") {
		t.Fatalf("unknown format must fail loudly, got %v", err)
	}
}

func TestFusePropagatesParseErrors(t *testing.T) {
	r := NewRegistry()
	_, err := r.Fuse([]RawFile{{Domain: "d", Source: "s", Name: "n", Format: "json", Content: []byte("{bad")}})
	if err == nil {
		t.Fatal("parse failure must propagate")
	}
}

// TestNestingLimit: JSON objects and XML elements nested maxNesting levels
// deep parse; one level more is an error that names the depth, not the
// content.
func TestNestingLimit(t *testing.T) {
	nestJSON := func(levels int) string {
		return strings.Repeat(`{"a":`, levels-1) + `{"a":"x"}` + strings.Repeat("}", levels-1)
	}
	nestXML := func(levels int) string { // the root element is a level
		return strings.Repeat("<a>", levels-1) + "<a>x</a>" + strings.Repeat("</a>", levels-1)
	}
	for _, tc := range []struct {
		a    Adapter
		nest func(int) string
	}{{SemiJSON{}, nestJSON}, {SemiXML{}, nestXML}} {
		f := RawFile{Domain: "d", Source: "s", Name: "n", Format: tc.a.Format()}
		f.Content = []byte(tc.nest(maxNesting))
		if _, err := tc.a.Parse(f); err != nil {
			t.Fatalf("%s nested %d levels: %v", f.Format, maxNesting, err)
		}
		f.Content = []byte(tc.nest(maxNesting + 1))
		_, err := tc.a.Parse(f)
		if err == nil || !strings.Contains(err.Error(), "33 levels deep") {
			t.Fatalf("%s nested %d levels: err = %v", f.Format, maxNesting+1, err)
		}
	}
}
