package linegraph

import "maps"

// overlay is the copy-on-write map backing SG's two key indexes (key →
// homologous node, key → isolated triple handle + 1). The pattern mirrors the
// interner maps of the graph core (internal/kg/cowmap.go): lookups probe a
// private tail before a frozen shared base; deleting a base key leaves a
// tombstone (the value type's zero value) in the tail; cloning copies only
// the tail, flattening tail into a fresh base once it reaches half the base
// so probe depth and clone cost stay amortised O(delta). Bases are never
// written after construction, so any number of SG generations (and
// concurrent readers of published snapshots) share them safely.
//
// The zero value of V doubles as the tombstone, so live values must be
// non-zero (non-nil nodes, handles stored plus one).
type overlay[V comparable] struct {
	base map[string]V
	tail map[string]V
	n    int // live entry count
}

// overlayFlatten reports whether a tail of size t over a base of size b is
// due for flattening at clone time. Kept in sync with flattenTail in
// internal/kg/cowmap.go, the same policy one layer down.
func overlayFlatten(t, b int) bool { return t >= 64 && 2*t >= b }

func (o *overlay[V]) get(k string) (V, bool) {
	var zero V
	if v, ok := o.tail[k]; ok {
		return v, v != zero
	}
	v, ok := o.base[k]
	return v, ok
}

func (o *overlay[V]) put(k string, v V) {
	if _, live := o.get(k); !live {
		o.n++
	}
	if o.tail == nil {
		o.tail = map[string]V{}
	}
	o.tail[k] = v
}

func (o *overlay[V]) del(k string) {
	if _, live := o.get(k); !live {
		return
	}
	o.n--
	if _, inBase := o.base[k]; inBase {
		if o.tail == nil {
			o.tail = map[string]V{}
		}
		var zero V
		o.tail[k] = zero // tombstone
	} else {
		delete(o.tail, k)
	}
}

func (o *overlay[V]) forEach(fn func(k string, v V)) {
	var zero V
	for k, v := range o.tail {
		if v != zero {
			fn(k, v)
		}
	}
	for k, v := range o.base {
		if _, shadowed := o.tail[k]; !shadowed {
			fn(k, v)
		}
	}
}

func (o *overlay[V]) clone() overlay[V] {
	if overlayFlatten(len(o.tail), len(o.base)) {
		merged := make(map[string]V, o.n)
		o.forEach(func(k string, v V) { merged[k] = v })
		return overlay[V]{base: merged, n: o.n}
	}
	return overlay[V]{base: o.base, tail: maps.Clone(o.tail), n: o.n}
}
