package adapter

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"sort"
	"strings"

	"multirag/internal/jsonld"
)

// SemiJSON adapts semi-structured nested JSON: the file is either a JSON
// array of objects or a single object; nesting is preserved as linked-data
// sub-nodes. Per §III-B these trees carry no column index and are searched
// with DFS downstream.
type SemiJSON struct{}

// Format implements Adapter.
func (SemiJSON) Format() string { return "json" }

// Parse implements Adapter.
func (SemiJSON) Parse(f RawFile) (*jsonld.Normalized, error) {
	var any interface{}
	if err := json.Unmarshal(f.Content, &any); err != nil {
		return nil, fmt.Errorf("json parse: %w", err)
	}
	if d := jsonDepth(any); d > maxNesting {
		return nil, fmt.Errorf("json parse: objects nest %d levels deep, over the %d-level limit", d, maxNesting)
	}
	n := newNormalized(f)
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

// maxNesting bounds how deep JSON objects or XML elements nest. Each level's
// attribute path is its parent's plus one name and every path is stored, so
// what a file retains grows with the square of its depth. Real records nest a
// few levels.
const maxNesting = 32

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
	doc := jsonld.New(id, "Record")
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
	return doc
}

// SemiXML adapts semi-structured XML. Each child of the root element becomes
// one record; element text becomes scalar properties, nested elements become
// sub-nodes, attributes become properties prefixed with "@".
type SemiXML struct{}

// Format implements Adapter.
func (SemiXML) Format() string { return "xml" }

type xmlNode struct {
	XMLName  xml.Name
	Attrs    []xml.Attr `xml:",any,attr"`
	Children []xmlNode  `xml:",any"`
	Text     string     `xml:",chardata"`
}

// Parse implements Adapter.
func (SemiXML) Parse(f RawFile) (*jsonld.Normalized, error) {
	var root xmlNode
	if err := xml.Unmarshal(f.Content, &root); err != nil {
		// Wide enough for a whole syntax error, short of the element names
		// some of them echo.
		return nil, fmt.Errorf("xml parse: %.96q", err)
	}
	if d := xmlDepth(root); d > maxNesting {
		return nil, fmt.Errorf("xml parse: elements nest %d levels deep, over the %d-level limit", d, maxNesting)
	}
	n := newNormalized(f)
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
	doc := jsonld.New(id, "Record")
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
	return doc
}
