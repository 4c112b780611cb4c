package adapter_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/jsonld"
)

// The oracle is each format's Parse as it was written before the adapters
// parsed into flat records: encoding/json decoded into interface{} and
// printed with fmt.Sprint, xml.Unmarshal into a reflective node tree,
// csv.ReadAll, strings.Split, and documents that set their properties one at
// a time. FuzzAdaptersMatchOracle holds the adapters to it record for record.

// oracleMaxNesting is the adapters' nesting limit.
const oracleMaxNesting = 32

// oracleParsers are the oracle's Parse functions by format.
var oracleParsers = map[string]func(adapter.RawFile) (*jsonld.Normalized, error){
	"csv": oracleCSV, "json": oracleJSON, "xml": oracleXML, "kg": oracleKG, "text": oracleText,
}

// tree is a document that sets its properties one at a time, keeping them in
// key order and the last value set for a key.
type tree struct{ *jsonld.Document }

func newTree(id, typ string) tree { return tree{&jsonld.Document{ID: id, Type: typ}} }

func (t tree) put(key string, v jsonld.Value) {
	i := sort.Search(len(t.Props), func(i int) bool { return t.Props[i].Key >= key })
	if i < len(t.Props) && t.Props[i].Key == key {
		t.Props[i].Value = v
		return
	}
	t.Props = slices.Insert(t.Props, i, jsonld.Prop{Key: key, Value: v})
}

func (t tree) Set(key, val string)                       { t.put(key, jsonld.Value{Str: val}) }
func (t tree) SetList(key string, vals []string)         { t.put(key, jsonld.Value{List: vals}) }
func (t tree) SetNode(key string, node *jsonld.Document) { t.put(key, jsonld.Value{Node: node}) }

// FuzzAdaptersMatchOracle parses each content as every format, with the
// adapter and with the oracle, and requires both to fail or both to return
// the same file: identity, metadata and records equal, each record's ID,
// type, properties in order and values.
func FuzzAdaptersMatchOracle(f *testing.F) {
	for _, seed := range oracleSeeds() {
		f.Add(seed)
	}
	reg := adapter.NewRegistry()
	f.Fuzz(func(t *testing.T, content []byte) {
		for _, format := range []string{"csv", "json", "xml", "kg", "text"} {
			raw := adapter.RawFile{Domain: "d", Source: "s", Name: "n", Format: format, Content: content}
			want, werr := oracleParsers[format](raw)
			got, gerr := reg.Fuse([]adapter.RawFile{raw})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: oracle error %v, adapter error %v", format, werr, gerr)
			}
			if werr == nil {
				if diff := diffNormalized(got[0], want); diff != "" {
					t.Fatalf("%s: %s", format, diff)
				}
			}
		}
	})
}

// oracleSeeds are small datasets files of every format and the shapes they do
// not reach.
func oracleSeeds() [][]byte {
	var seeds [][]byte
	for _, spec := range datasets.AllPresets(1) {
		spec.Entities = 8
		seen := map[string]bool{}
		for _, file := range datasets.MustGenerate(spec).Files {
			if !seen[file.Format] {
				seen[file.Format] = true
				seeds = append(seeds, file.Content)
			}
		}
	}
	nest := func(open, leaf, close string, levels int) string {
		return strings.Repeat(open, levels-1) + leaf + strings.Repeat(close, levels-1)
	}
	for _, levels := range []int{oracleMaxNesting, oracleMaxNesting + 1} {
		seeds = append(seeds,
			[]byte(nest(`{"a":`, `{"a":"x"}`, "}", levels)),
			[]byte(nest("<a>", "<a>x</a>", "</a>", levels)))
	}
	for _, s := range []string{
		// JSON: duplicate keys, the later winning, also over a subtree too
		// deep to keep and over a list's numbered record.
		`{"a":1,"a":"x","b":{"c":1},"b":[1,2]}`,
		`{"a":` + nest(`{"a":`, `{}`, "}", 40) + `,"a":1}`,
		`{"a/0":"s","a":[{"x":1}],"a/1":{"y":2}}`,
		`[{"ab":"1","ab":"2"},{"k":"é\ud800\\n\"","é":"x"}]`,
		// null, bools, numbers and arrays in lists, and lists mixing
		// objects with scalars.
		`{"name":"x","v":[null,true,false,1.5,1e21,-0,100000000,0.000001,1e2,[1,"a",{"b":null,"b":2}],"s"],"w":[]}`,
		`{"name":"x","l":[1,{"a":2},"s",{"b":[3,{"c":{}}]}],"n":null,"t":true,"f":12345678901234567890}`,
		`[{"a":1}, 2]`, `"scalar"`, `[]`, `{}`, `[[]]`,
		// Out-of-range numbers, trailing data and invalid UTF-8.
		`{"a":1e999}`, `{"a":[{"b":1},-1e999]}`, `{"a":[[1e400]]}`, `{"a":1} x`, `[{"a":1}]]`,
		"{\"a\xff\":\"b\xfe\",\"c\":\"\xe2\x82\"}",
		// XML: namespaced attributes of one name, repeated and mixed
		// children, text around comments and CDATA, a root with no
		// children, a prolog, trailing data and invalid UTF-8.
		`<r xmlns:a="u" xmlns:b="v"><x a:k="1" b:k="2" k="0"/><x k="3"><y>2</y></x><z>t<!--c-->u<![CDATA[v&]]> </z><z> w </z></r>`,
		`<?xml version="1.0"?><!DOCTYPE r><!-- c --><r k="v">text</r>trailing<`,
		`<r><a><b>1</b><b>2</b><c> 3 </c></a><a/></r>`, "<r><a>\xff</a></r>", `<r><a>1</b></r>`, ``, `text`,
		// CSV: a repeated column, a column named @key, ragged rows (short
		// ones under an unsorted header holding @key), a row wider than the
		// header before one that does not parse.
		"a,b,a\n1,2,3\n", "name,@key,b\nx,y,z\nx,,\n", "k,v\n1\n2,3\n", "z,b,@key,a\nk,2\nk,1,y\nk\nk,,y,0\n", "a,b\n1,2,3\n\"x\n", "a,b\n\xff,\xfe\n",
		// kg and text: extra separators, blank lines and paragraphs.
		"s|p|o|x\n\n a | b | c \n", "only|two", "a\n\n\nb\n\n\n\nc", "  \n ",
	} {
		seeds = append(seeds, []byte(s))
	}
	return append(seeds, []byte(nest("<a>", "<a/>", "</a>", 5001)), []byte(nest("<a>", "<a/>", "</a>", 5000)))
}

// diffNormalized describes how got differs from want, or returns "".
func diffNormalized(got, want *jsonld.Normalized) string {
	if got.ID != want.ID || got.Domain != want.Domain || got.Source != want.Source || got.Name != want.Name || got.Format != want.Format {
		return fmt.Sprintf("identity %+v, want %+v", *got, *want)
	}
	if !maps.Equal(got.Meta, want.Meta) {
		return fmt.Sprintf("meta %v, want %v", got.Meta, want.Meta)
	}
	if len(got.JSC) != len(want.JSC) {
		return fmt.Sprintf("%d records, want %d", len(got.JSC), len(want.JSC))
	}
	for i := range got.JSC {
		if d := diffDocument(got.JSC[i], want.JSC[i]); d != "" {
			return fmt.Sprintf("record %d: %s", i, d)
		}
	}
	return ""
}

func diffDocument(got, want *jsonld.Document) string {
	if got.ID != want.ID || got.Type != want.Type {
		return fmt.Sprintf("id %q type %q, want %q %q", got.ID, got.Type, want.ID, want.Type)
	}
	if len(got.Props) != len(want.Props) {
		return fmt.Sprintf("%s: %d properties, want %d", got.ID, len(got.Props), len(want.Props))
	}
	for i, g := range got.Props {
		w := want.Props[i]
		if g.Key != w.Key || g.Str != w.Str || !slices.Equal(g.List, w.List) || (g.List == nil) != (w.List == nil) || (g.Node == nil) != (w.Node == nil) {
			return fmt.Sprintf("%s: property %q = %+v, want %q = %+v", got.ID, g.Key, g.Value, w.Key, w.Value)
		}
		if g.Node != nil {
			if d := diffDocument(g.Node, w.Node); d != "" {
				return d
			}
		}
	}
	return ""
}

func oracleCSV(f adapter.RawFile) (*jsonld.Normalized, error) {
	r := csv.NewReader(bytes.NewReader(f.Content))
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv parse: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csv parse: empty file")
	}
	header := records[0]
	if len(header) < 2 {
		return nil, fmt.Errorf("csv parse: need a key column plus at least one attribute, got %d columns", len(header))
	}
	for i, c := range header {
		for _, prev := range header[:i] {
			if c == prev {
				return nil, fmt.Errorf("csv parse: duplicate column %.64q in table %.64q", c, f.Name)
			}
		}
	}
	n := oracleNormalized(f)
	for rowNum, rec := range records[1:] {
		if len(rec) > len(header) {
			return nil, fmt.Errorf("csv parse: row %d has %d fields, header has %d", rowNum+1, len(rec), len(header))
		}
		key := ""
		if len(rec) > 0 {
			key = rec[0]
		}
		doc := newTree(fmt.Sprintf("%s/row/%d", n.ID, rowNum), "Record")
		doc.Set("@key", key)
		for i := 1; i < len(rec) && i < len(header); i++ {
			if rec[i] != "" {
				doc.Set(header[i], rec[i])
			}
		}
		n.JSC = append(n.JSC, doc.Document)
	}
	return n, nil
}

func oracleJSON(f adapter.RawFile) (*jsonld.Normalized, error) {
	var any interface{}
	if err := json.Unmarshal(f.Content, &any); err != nil {
		return nil, fmt.Errorf("json parse: %w", err)
	}
	if d := jsonDepth(any); d > oracleMaxNesting {
		return nil, fmt.Errorf("json parse: objects nest %d levels deep, over the %d-level limit", d, oracleMaxNesting)
	}
	n := oracleNormalized(f)
	switch v := any.(type) {
	case []interface{}:
		for i, item := range v {
			obj, ok := item.(map[string]interface{})
			if !ok {
				return nil, fmt.Errorf("json parse: array element %d is not an object", i)
			}
			n.JSC = append(n.JSC, jsonToDoc(fmt.Sprintf("%s/obj/%d", n.ID, i), obj))
		}
	case map[string]interface{}:
		n.JSC = append(n.JSC, jsonToDoc(n.ID+"/obj/0", v))
	default:
		return nil, fmt.Errorf("json parse: top level must be object or array of objects")
	}
	return n, nil
}

// jsonDepth is how deep objects nest in a decoded JSON value.
func jsonDepth(v interface{}) int {
	d := 0
	switch v := v.(type) {
	case map[string]interface{}:
		for _, c := range v {
			d = max(d, jsonDepth(c))
		}
		return d + 1
	case []interface{}:
		for _, c := range v {
			d = max(d, jsonDepth(c))
		}
	}
	return d
}

func jsonToDoc(id string, obj map[string]interface{}) *jsonld.Document {
	doc := newTree(id, "Record")
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := obj[k].(type) {
		case map[string]interface{}:
			doc.SetNode(k, jsonToDoc(id+"/"+k, v))
		case []interface{}:
			var list []string
			nested := false
			for i, item := range v {
				if m, ok := item.(map[string]interface{}); ok {
					// A list of objects becomes numbered sub-nodes.
					doc.SetNode(fmt.Sprintf("%s/%d", k, i), jsonToDoc(fmt.Sprintf("%s/%s/%d", id, k, i), m))
					nested = true
				} else {
					list = append(list, fmt.Sprint(item))
				}
			}
			if !nested {
				doc.SetList(k, list)
			}
		default:
			doc.Set(k, fmt.Sprint(v))
		}
	}
	return doc.Document
}

type xmlNode struct {
	XMLName  xml.Name
	Attrs    []xml.Attr `xml:",any,attr"`
	Children []xmlNode  `xml:",any"`
	Text     string     `xml:",chardata"`
}

func oracleXML(f adapter.RawFile) (*jsonld.Normalized, error) {
	var root xmlNode
	if err := xml.Unmarshal(f.Content, &root); err != nil {
		// Wide enough for a whole syntax error, short of the element names
		// some of them echo.
		return nil, fmt.Errorf("xml parse: %.96q", err)
	}
	if d := xmlDepth(root); d > oracleMaxNesting {
		return nil, fmt.Errorf("xml parse: elements nest %d levels deep, over the %d-level limit", d, oracleMaxNesting)
	}
	n := oracleNormalized(f)
	if len(root.Children) == 0 {
		n.JSC = append(n.JSC, xmlToDoc(n.ID+"/rec/0", root))
		return n, nil
	}
	for i, child := range root.Children {
		n.JSC = append(n.JSC, xmlToDoc(fmt.Sprintf("%s/rec/%d", n.ID, i), child))
	}
	return n, nil
}

// xmlDepth is how deep elements nest under and including node.
func xmlDepth(node xmlNode) int {
	d := 0
	for _, c := range node.Children {
		d = max(d, xmlDepth(c))
	}
	return d + 1
}

func xmlToDoc(id string, node xmlNode) *jsonld.Document {
	doc := newTree(id, "Record")
	for _, a := range node.Attrs {
		doc.Set("@"+a.Name.Local, a.Value)
	}
	// Group repeated child element names into lists.
	byName := map[string][]xmlNode{}
	var order []string
	for _, c := range node.Children {
		if _, seen := byName[c.XMLName.Local]; !seen {
			order = append(order, c.XMLName.Local)
		}
		byName[c.XMLName.Local] = append(byName[c.XMLName.Local], c)
	}
	for _, name := range order {
		group := byName[name]
		if len(group) == 1 {
			c := group[0]
			if len(c.Children) == 0 && len(c.Attrs) == 0 {
				doc.Set(name, strings.TrimSpace(c.Text))
			} else {
				doc.SetNode(name, xmlToDoc(id+"/"+name, c))
			}
			continue
		}
		scalar := true
		for _, c := range group {
			if len(c.Children) > 0 || len(c.Attrs) > 0 {
				scalar = false
				break
			}
		}
		if scalar {
			var list []string
			for _, c := range group {
				list = append(list, strings.TrimSpace(c.Text))
			}
			doc.SetList(name, list)
		} else {
			for i, c := range group {
				doc.SetNode(fmt.Sprintf("%s/%d", name, i), xmlToDoc(fmt.Sprintf("%s/%s/%d", id, name, i), c))
			}
		}
	}
	return doc.Document
}

func oracleText(f adapter.RawFile) (*jsonld.Normalized, error) {
	text := strings.TrimSpace(string(f.Content))
	if text == "" {
		return nil, fmt.Errorf("text parse: empty file")
	}
	n := oracleNormalized(f)
	for i, para := range strings.Split(text, "\n\n") {
		para = strings.TrimSpace(para)
		if para == "" {
			continue
		}
		doc := newTree(fmt.Sprintf("%s/para/%d", n.ID, i), "Text")
		doc.Set("text", para)
		n.JSC = append(n.JSC, doc.Document)
	}
	if len(n.JSC) == 0 {
		return nil, fmt.Errorf("text parse: no paragraphs")
	}
	return n, nil
}

func oracleKG(f adapter.RawFile) (*jsonld.Normalized, error) {
	n := oracleNormalized(f)
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
		doc := newTree(fmt.Sprintf("%s/spo/%d", n.ID, i), "Triple")
		doc.Set("subject", strings.TrimSpace(parts[0]))
		doc.Set("predicate", strings.TrimSpace(parts[1]))
		doc.Set("object", strings.TrimSpace(parts[2]))
		n.JSC = append(n.JSC, doc.Document)
	}
	if len(n.JSC) == 0 {
		return nil, fmt.Errorf("kg parse: no triples")
	}
	return n, nil
}

// oracleNormalized fills the identity fields shared by all adapters.
func oracleNormalized(f adapter.RawFile) *jsonld.Normalized {
	meta := map[string]string{}
	for k, v := range f.Meta {
		meta[k] = v
	}
	return &jsonld.Normalized{
		ID:     jsonld.NormalizedID(f.Domain, f.Source, f.Name),
		Domain: f.Domain,
		Source: f.Source,
		Name:   f.Name,
		Format: f.Format,
		Meta:   meta,
	}
}
