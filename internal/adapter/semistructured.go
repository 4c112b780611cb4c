package adapter

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"multirag/internal/jsonld"
)

// maxNesting bounds how deep JSON objects or XML elements nest. Each level's
// attribute path is its parent's plus one name and every path is stored, so
// what a file retains grows with the square of its depth. Real records nest a
// few levels.
const maxNesting = 32

// SemiJSON adapts semi-structured nested JSON: the file is either a JSON
// array of objects or a single object; nesting is preserved as linked-data
// sub-nodes. Per §III-B these trees carry no column index and are searched
// with DFS downstream.
//
// A file's records are what encoding/json would decode it into, each value
// as fmt.Sprint prints it: json.Valid decides whether the file is JSON at all
// (the stdlib grammar and its depth cap), and one walk over a string copy of
// it then takes the values as substrings. Of members with equal keys the last
// counts, as in a decoded map; a string with an escape or invalid UTF-8 is
// unquoted by the stdlib; a number reads as the shortest form of its float64
// and one outside the float64 range is an error.
type SemiJSON struct{}

// Format implements Adapter.
func (SemiJSON) Format() string { return "json" }

// Parse implements Adapter.
func (SemiJSON) Parse(f RawFile) (*jsonld.Normalized, error) {
	if !json.Valid(f.Content) {
		// The same check fails first inside Unmarshal, with the syntax error.
		return nil, fmt.Errorf("json parse: %w", json.Unmarshal(f.Content, &struct{}{}))
	}
	w := jsonPool.Get().(*jsonWalk)
	defer w.release()
	w.reset()
	w.s = string(f.Content)
	n := newNormalized(f)
	if err := w.file(n.ID); err != nil {
		return nil, err
	}
	w.finish(n)
	return n, nil
}

// jsonWalk walks one valid JSON text s from offset i into records.
type jsonWalk struct {
	records
	s       string
	i       int
	members []member // members of the objects being walked
	strs    []string // values of the lists being walked
	num     []byte   // a number's shortest form
}

// member is one member of an object being walked: its key, its properties
// open[lo:hi] (one, or a list's numbered records) and how deep objects nest
// in its value.
type member struct {
	key    string
	lo, hi int
	depth  int
}

var jsonPool = sync.Pool{New: func() any { return new(jsonWalk) }}

func (w *jsonWalk) reset() {
	w.records.reset()
	w.i, w.members, w.strs = 0, w.members[:0], w.strs[:0]
}

func (w *jsonWalk) release() {
	if w.records.release() && cap(w.members) <= maxPooled && cap(w.strs) <= maxPooled {
		w.s = ""
		clear(w.members[:cap(w.members)])
		clear(w.strs[:cap(w.strs)])
		jsonPool.Put(w)
	}
}

// file walks the top level: an object is the file's one record, an array
// holds one record per element, and anything else is an error.
func (w *jsonWalk) file(fileID string) error {
	w.ws()
	var err error
	depth := 0
	switch w.s[w.i] {
	case '{':
		depth, err = w.record(fileID, 0)
	case '[':
		w.i++
		for k := 0; err == nil && w.more(']'); k++ {
			if w.s[w.i] != '{' {
				return fmt.Errorf("json parse: array element %d is not an object", k)
			}
			var d int
			d, err = w.record(fileID, k)
			depth = max(depth, d)
		}
	default:
		return errors.New("json parse: top level must be object or array of objects")
	}
	if err != nil {
		return err
	}
	if depth > maxNesting {
		return fmt.Errorf("json parse: objects nest %d levels deep, over the %d-level limit", depth, maxNesting)
	}
	return nil
}

// record walks the file's record k, the object at w.i, and returns how deep
// objects nest in it.
func (w *jsonWalk) record(fileID string, k int) (int, error) {
	lo, hi := w.newID(fileID, "obj", k)
	d, depth, err := w.object(lo, hi, 1)
	w.top = append(w.top, d)
	return depth, err
}

// object walks the object at w.i, the record whose ID is ids[idLo:idHi] at
// nesting level level, and returns its document and how deep objects nest in
// it. An object past maxNesting is decoded for its depth, not built (its
// document is -1).
func (w *jsonWalk) object(idLo, idHi, level int) (doc, depth int, err error) {
	if level > maxNesting {
		v, err := w.decode()
		return -1, decodedDepth(v), err
	}
	from, mfrom := len(w.open), len(w.members)
	w.i++ // '{'
	for w.more('}') {
		key := w.str()
		w.ws()
		w.i++ // ':'
		w.ws()
		m := member{key: key, lo: len(w.open)}
		if m.depth, err = w.value(key, idLo, idHi, level); err != nil {
			return 0, 0, err
		}
		m.hi = len(w.open)
		w.members = append(w.members, m)
	}
	depth = w.orderMembers(from, mfrom)
	return w.closeDoc("Record", idLo, idHi, from), depth + 1, nil
}

// value walks the value of member key of the object at nesting level level
// into properties, and returns how deep objects nest in it.
func (w *jsonWalk) value(key string, idLo, idHi, level int) (int, error) {
	switch w.s[w.i] {
	case '{':
		lo, hi := w.childID(idLo, idHi, key)
		d, depth, err := w.object(lo, hi, level+1)
		w.openNode(key, d)
		return depth, err
	case '[':
		return w.list(key, idLo, idHi, level)
	}
	v, err := w.scalar()
	w.open = append(w.open, rprop{key: key, str: v})
	return 0, err
}

// openNode sets key to the document d, unless d is past maxNesting and so
// was not built: the file then fails unless a later member replaces the one
// that holds it.
func (w *jsonWalk) openNode(key string, d int) {
	if d >= 0 {
		w.open = append(w.open, rprop{key: key, lo: d, node: true})
	}
}

// list walks the array at w.i, the value of member key. Its objects become
// records keyed "<key>/<index>"; its other elements, if it has no object, a
// list (none at all reads as the empty value), else nothing.
func (w *jsonWalk) list(key string, idLo, idHi, level int) (depth int, err error) {
	from := len(w.strs)
	nested := false
	w.i++ // '['
	for k := 0; w.more(']'); k++ {
		var v string
		d := 0
		switch w.s[w.i] {
		case '{':
			nested = true
			item := key + "/" + strconv.Itoa(k)
			lo, hi := w.childID(idLo, idHi, item)
			var doc int
			doc, d, err = w.object(lo, hi, level+1)
			w.openNode(item, doc)
		case '[': // printed as fmt.Sprint prints its decoded value
			var a any
			a, err = w.decode()
			v, d = fmt.Sprint(a), decodedDepth(a)
			w.strs = append(w.strs, v)
		default:
			v, err = w.scalar()
			w.strs = append(w.strs, v)
		}
		if err != nil {
			return 0, err
		}
		depth = max(depth, d)
	}
	if !nested {
		lo := len(w.vals)
		w.vals = append(w.vals, w.strs[from:]...)
		w.open = append(w.open, rprop{key: key, lo: lo, hi: len(w.vals), list: lo < len(w.vals)})
	}
	w.strs = w.strs[:from]
	return depth, nil
}

// orderMembers ends the members of an object, w.members[mfrom:] holding
// w.open[from:]: of members with equal keys only the last counts and the
// properties of the others are dropped, and the rest's properties are put in
// the order of their members' keys, so that a list's numbered record and a
// member of the same key are set in key order, the member last. It returns
// how deep objects nest in the members that count.
func (w *jsonWalk) orderMembers(from, mfrom int) (depth int) {
	ms := w.members[mfrom:]
	sorted := true
	for i := 1; i < len(ms) && sorted; i++ {
		sorted = ms[i-1].key < ms[i].key
	}
	if sorted {
		for _, m := range ms {
			depth = max(depth, m.depth)
		}
	} else {
		slices.SortStableFunc(ms, func(a, b member) int { return strings.Compare(a.key, b.key) })
		end := len(w.open)
		for i, m := range ms {
			if i+1 < len(ms) && ms[i+1].key == m.key {
				continue
			}
			depth = max(depth, m.depth)
			w.open = append(w.open, w.open[m.lo:m.hi]...)
		}
		n := copy(w.open[from:], w.open[end:])
		w.open = w.open[:from+n]
	}
	w.members = w.members[:mfrom]
	return depth
}

// scalar reads the string, number, true, false or null at w.i as fmt.Sprint
// prints its decoded value.
func (w *jsonWalk) scalar() (string, error) {
	switch w.s[w.i] {
	case '"':
		return w.str(), nil
	case 't':
		w.i += len("true")
		return "true", nil
	case 'f':
		w.i += len("false")
		return "false", nil
	case 'n':
		w.i += len("null")
		return "<nil>", nil
	}
	return w.number()
}

// str reads the string at w.i: its own bytes when it holds no escape and is
// valid UTF-8, else what the stdlib unquotes it to. Each byte is looked at
// once: the closing quote is searched for again only when an escape has
// passed the one found.
func (w *jsonWalk) str() string {
	lo, plain := w.i, true
	q := lo + 1 + strings.IndexByte(w.s[lo+1:], '"')
	for j := lo + 1; ; {
		b := strings.IndexByte(w.s[j:q], '\\')
		if b < 0 {
			break
		}
		plain = false
		j += b + 2 // the backslash and the byte it escapes
		if j > q {
			q = j + strings.IndexByte(w.s[j:], '"')
		}
	}
	w.i = q + 1
	if body := w.s[lo+1 : w.i-1]; plain && utf8.ValidString(body) {
		return body
	}
	var v string
	_ = json.Unmarshal([]byte(w.s[lo:w.i]), &v) // valid: the whole text is
	return v
}

// number reads the number at w.i as the shortest form of its float64: its own
// bytes when they are that form.
func (w *jsonWalk) number() (string, error) {
	lo := w.i
	for w.i < len(w.s) && numberByte(w.s[w.i]) {
		w.i++
	}
	lit := w.s[lo:w.i]
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return "", fmt.Errorf("json parse: number %.64s does not fit a float64", lit)
	}
	w.num = strconv.AppendFloat(w.num[:0], f, 'g', -1, 64)
	if string(w.num) == lit {
		return lit, nil
	}
	return string(w.num), nil
}

func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// decode reads the value at w.i with the stdlib. The walk leaves it the
// shapes it does not build, which real files do not have: an array inside a
// list and an object past maxNesting.
func (w *jsonWalk) decode() (any, error) {
	d := json.NewDecoder(strings.NewReader(w.s[w.i:]))
	var v any
	if err := d.Decode(&v); err != nil {
		return nil, fmt.Errorf("json parse: %w", err)
	}
	w.i += int(d.InputOffset())
	return v, nil
}

// decodedDepth is how deep objects nest in a decoded JSON value.
func decodedDepth(v any) int {
	d := 0
	switch v := v.(type) {
	case map[string]any:
		for _, c := range v {
			d = max(d, decodedDepth(c))
		}
		return d + 1
	case []any:
		for _, c := range v {
			d = max(d, decodedDepth(c))
		}
	}
	return d
}

// more moves w.i to the next element of the object or array being walked
// and reports whether there is one; when there is not, it moves past the
// closing byte close.
func (w *jsonWalk) more(close byte) bool {
	if w.ws(); w.s[w.i] == close {
		w.i++
		return false
	}
	if w.s[w.i] == ',' {
		w.i++
		w.ws()
	}
	return true
}

// ws moves w.i past white space.
func (w *jsonWalk) ws() {
	for w.i < len(w.s) {
		switch w.s[w.i] {
		case ' ', '\t', '\n', '\r':
			w.i++
		default:
			return
		}
	}
}

// SemiXML adapts semi-structured XML. Each child of the root element becomes
// one record; element text becomes scalar properties, nested elements become
// sub-nodes, attributes become properties prefixed with "@". A file's records
// are what xml.Unmarshal would read it into: the file is walked token by
// token (xml.Decoder.Token), the elements kept in flat tables, and each
// record built from them once the root element ends.
type SemiXML struct{}

// Format implements Adapter.
func (SemiXML) Format() string { return "xml" }

// Parse implements Adapter.
func (SemiXML) Parse(f RawFile) (*jsonld.Normalized, error) {
	w := xmlPool.Get().(*xmlWalk)
	defer w.release()
	w.reset()
	if err := w.read(xml.NewDecoder(bytes.NewReader(f.Content))); err != nil {
		return nil, err
	}
	n := newNormalized(f)
	w.build(n.ID)
	w.finish(n)
	return n, nil
}

// xmlWalk holds one XML file's elements, the root's subtree in document
// order, while they are read, and builds the file's records from them.
type xmlWalk struct {
	records
	elems []xelem
	attrs []xattr
	text  []byte // attribute keys and the character data of elements without children
	stack []int  // the open elements, -1 for one past maxNesting
	kids  []int  // the children of the elements being built
}

// xelem is one element: its name, attributes, character data (when it has no
// children) and children, a list through next.
type xelem struct {
	name           string
	attrLo, attrHi int
	textLo, textHi int
	first, last    int // children; 0, the root's index, is none
	next           int
}

// xattr is one attribute: its key, "@" and its name, in text, and its value.
type xattr struct {
	lo, hi int
	val    string
}

var xmlPool = sync.Pool{New: func() any { return new(xmlWalk) }}

// maxUnmarshalDepth is the nesting level at which xml.Unmarshal gives up
// ("exceeded max depth"): its recursion takes two steps an element.
const maxUnmarshalDepth = 5001

func (w *xmlWalk) reset() {
	w.records.reset()
	w.elems, w.attrs, w.text, w.stack, w.kids = w.elems[:0], w.attrs[:0], w.text[:0], w.stack[:0], w.kids[:0]
}

func (w *xmlWalk) release() {
	if w.records.release() && max(cap(w.elems), cap(w.attrs), cap(w.text), cap(w.stack), cap(w.kids)) <= maxPooled {
		clear(w.elems[:cap(w.elems)])
		clear(w.attrs[:cap(w.attrs)])
		xmlPool.Put(w)
	}
}

// read reads the root element from d, as xml.Unmarshal does: tokens before it
// are skipped and tokens after it are not read.
func (w *xmlWalk) read(d *xml.Decoder) error {
	for {
		tok, err := d.Token()
		if err != nil {
			return xmlError(err)
		}
		if t, ok := tok.(xml.StartElement); ok {
			w.stack = append(w.stack, w.start(t, -1))
			break
		}
	}
	deepest := 1
	for len(w.stack) > 0 {
		tok, err := d.Token()
		if err != nil {
			return xmlError(err)
		}
		top := w.stack[len(w.stack)-1]
		switch t := tok.(type) {
		case xml.StartElement:
			level := len(w.stack) + 1
			if level >= maxUnmarshalDepth {
				return xmlError(errors.New("exceeded max depth"))
			}
			deepest = max(deepest, level)
			e := -1
			if top >= 0 && level <= maxNesting {
				e = w.start(t, top)
			}
			w.stack = append(w.stack, e)
		case xml.EndElement:
			if top >= 0 && w.elems[top].first == 0 {
				w.elems[top].textHi = len(w.text)
			}
			w.stack = w.stack[:len(w.stack)-1]
		case xml.CharData:
			if top >= 0 && w.elems[top].first == 0 {
				w.text = append(w.text, t...)
			}
		}
	}
	if deepest > maxNesting {
		return fmt.Errorf("xml parse: elements nest %d levels deep, over the %d-level limit", deepest, maxNesting)
	}
	return nil
}

// xmlError wraps a read error: wide enough for a whole syntax error, short of
// the element names some of them echo.
func xmlError(err error) error { return fmt.Errorf("xml parse: %.96q", err) }

// start adds element t, a child of parent (-1 for the root), and returns its
// index.
func (w *xmlWalk) start(t xml.StartElement, parent int) int {
	e := len(w.elems)
	if parent >= 0 {
		p := &w.elems[parent]
		if p.first == 0 {
			p.first = e
			w.text = w.text[:p.textLo] // p's character data counts no more
		} else {
			w.elems[p.last].next = e
		}
		p.last = e
	}
	el := xelem{name: t.Name.Local, attrLo: len(w.attrs)}
	for _, a := range t.Attr {
		lo := len(w.text)
		w.text = append(append(w.text, '@'), a.Name.Local...)
		w.attrs = append(w.attrs, xattr{lo: lo, hi: len(w.text), val: a.Value})
	}
	el.attrHi, el.textLo = len(w.attrs), len(w.text)
	w.elems = append(w.elems, el)
	return e
}

// build makes the file's records: one per child of the root, or the root's
// attributes alone when it has no children.
func (w *xmlWalk) build(fileID string) {
	text := string(w.text)
	if w.elems[0].first == 0 {
		lo, hi := w.newID(fileID, "rec", 0)
		w.top = append(w.top, w.doc(text, 0, lo, hi))
		return
	}
	k := 0
	for c := w.elems[0].first; c != 0; c = w.elems[c].next {
		lo, hi := w.newID(fileID, "rec", k)
		w.top = append(w.top, w.doc(text, c, lo, hi))
		k++
	}
}

// scalar reports whether element e has neither children nor attributes.
func (w *xmlWalk) scalar(e int) bool {
	return w.elems[e].first == 0 && w.elems[e].attrLo == w.elems[e].attrHi
}

// doc builds element e into the record whose ID is ids[idLo:idHi]: its
// attributes, then its children grouped by name. A name one child has is a
// scalar property of its text, or a nested record; a name several children
// share is a list of their texts when none has children or attributes, else
// numbered nested records "<name>/<index>".
func (w *xmlWalk) doc(text string, e, idLo, idHi int) int {
	from := len(w.open)
	el := w.elems[e]
	for _, a := range w.attrs[el.attrLo:el.attrHi] {
		w.open = append(w.open, rprop{key: text[a.lo:a.hi], str: a.val})
	}
	klo := len(w.kids)
	for c := el.first; c != 0; c = w.elems[c].next {
		w.kids = append(w.kids, c)
	}
	slices.SortStableFunc(w.kids[klo:], func(a, b int) int { return strings.Compare(w.elems[a].name, w.elems[b].name) })
	khi := len(w.kids)
	for g := klo; g < khi; {
		name := w.elems[w.kids[g]].name
		h, scalar := g, true
		for ; h < khi && w.elems[w.kids[h]].name == name; h++ {
			scalar = scalar && w.scalar(w.kids[h])
		}
		switch {
		case h-g == 1 && scalar:
			c := w.elems[w.kids[g]]
			w.open = append(w.open, rprop{key: name, str: strings.TrimSpace(text[c.textLo:c.textHi])})
		case h-g == 1:
			lo, hi := w.childID(idLo, idHi, name)
			d := w.doc(text, w.kids[g], lo, hi)
			w.open = append(w.open, rprop{key: name, lo: d, node: true})
		case scalar:
			lo := len(w.vals)
			for _, c := range w.kids[g:h] {
				w.vals = append(w.vals, strings.TrimSpace(text[w.elems[c].textLo:w.elems[c].textHi]))
			}
			w.open = append(w.open, rprop{key: name, lo: lo, hi: len(w.vals), list: true})
		default:
			for j := g; j < h; j++ {
				key := name + "/" + strconv.Itoa(j-g)
				lo, hi := w.childID(idLo, idHi, key)
				d := w.doc(text, w.kids[j], lo, hi)
				w.open = append(w.open, rprop{key: key, lo: d, node: true})
			}
		}
		g = h
	}
	w.kids = w.kids[:klo]
	return w.closeDoc("Record", idLo, idHi, from)
}
