// Package jsonld implements the linked-data document model used to normalise
// multi-source data (Definition 1 and Fig. 2 of the paper). Every adapter in
// internal/adapter emits its parsed content as a jsonld.Document so that
// structured, semi-structured and unstructured sources share one storage
// representation before knowledge extraction.
package jsonld

import "sort"

// Document is a JSON-LD node object: an @id, an @type and a set of
// properties. Property values are either scalars (string), value lists
// ([]string) or nested Documents, mirroring the subset of JSON-LD the
// paper's Fig. 2 uses. Documents live only in memory, between an adapter's
// parse and knowledge extraction: nothing encodes or decodes them.
type Document struct {
	ID    string
	Type  string
	Props map[string]Value
}

// Value is one JSON-LD property value.
type Value struct {
	// Exactly one of the fields below is populated.
	Str  string
	List []string
	Node *Document
}

// Strings flattens the value into a string slice: a scalar becomes a
// singleton, a list is returned as-is, and a nested node contributes its @id.
func (v Value) Strings() []string {
	switch {
	case v.Node != nil:
		return []string{v.Node.ID}
	case v.List != nil:
		return v.List
	case v.Str != "":
		return []string{v.Str}
	}
	return nil
}

// New returns an empty document with the given @id and @type.
func New(id, typ string) *Document {
	return &Document{ID: id, Type: typ, Props: map[string]Value{}}
}

// Set assigns a scalar property.
func (d *Document) Set(key, val string) {
	d.Props[key] = Value{Str: val}
}

// SetList assigns a multi-valued property.
func (d *Document) SetList(key string, vals []string) {
	d.Props[key] = Value{List: vals}
}

// SetNode assigns a nested node property.
func (d *Document) SetNode(key string, node *Document) {
	d.Props[key] = Value{Node: node}
}

// Get returns the property value and whether it exists.
func (d *Document) Get(key string) (Value, bool) {
	v, ok := d.Props[key]
	return v, ok
}

// Keys returns the property names in sorted order.
func (d *Document) Keys() []string {
	keys := make([]string, 0, len(d.Props))
	for k := range d.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
