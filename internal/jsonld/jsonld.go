// Package jsonld implements the linked-data document model used to normalise
// multi-source data (Definition 1 and Fig. 2 of the paper). Every adapter in
// internal/adapter emits its parsed content as a jsonld.Document so that
// structured, semi-structured and unstructured sources share one storage
// representation before knowledge extraction.
package jsonld

// Document is a JSON-LD node object: an @id, an @type and its properties.
// Property values are either scalars (string), value lists ([]string) or
// nested Documents, mirroring the subset of JSON-LD the paper's Fig. 2 uses.
// Documents live only in memory, between an adapter's parse and knowledge
// extraction: nothing encodes or decodes them.
type Document struct {
	ID   string
	Type string
	// Props holds the properties in key order, each key once: where a
	// source sets one key twice, the value set last is the one held.
	Props []Prop
}

// Prop is one property of a Document.
type Prop struct {
	Key string
	Value
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
// The call inlines, so a caller that only ranges over the result keeps the
// singleton on its stack.
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

// Get returns the property value of key and whether d has it.
func (d *Document) Get(key string) (Value, bool) {
	lo, hi := 0, len(d.Props)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.Props[m].Key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(d.Props) && d.Props[lo].Key == key {
		return d.Props[lo].Value, true
	}
	return Value{}, false
}
