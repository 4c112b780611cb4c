package linegraph

import (
	"fmt"
	"sort"

	"multirag/internal/kg"
	"multirag/internal/wal"
)

// Checkpoint serialization of the homologous line graph. Only the irreducible
// state is stored: each homologous node as its member triple handles, each
// isolated point as its triple handle, and the monotone maxGroup bound (which
// can exceed the value recomputable from the live nodes after destructive
// mutation, so it cannot be derived). A node's or isolated point's key is its
// triples' (subject, predicate) key, so it is derived from the decoded graph
// (Triple.Key) instead of stored. Nodes are rebuilt through newHomologousNode
// against the already-decoded graph — the same constructor Build and
// BuildDelta use — so a recovered SG is structurally identical to the one
// that was checkpointed, and the lazy caches (isolated list, attribute index)
// refill on first use exactly as after a Build.
//
// Nodes and isolated points are emitted in key order, making the encoding
// deterministic: two equivalent SGs serialize to identical bytes, which is
// what lets the crash tests compare recovered state against the pre-crash
// snapshot byte for byte.
//
// A body written before keys were derived (keyed, for DecodeSG) holds each
// node's key in front of its member count and each isolated point as its key
// and its triple's ID.

// EncodeTo serializes the SG into e.
func (sg *SG) EncodeTo(e *wal.Encoder) {
	keys := make([]string, 0, sg.nodes.n)
	sg.nodes.forEach(func(k string, _ *HomologousNode) { keys = append(keys, k) })
	sort.Strings(keys)
	e.Int(len(keys))
	for _, k := range keys {
		n, _ := sg.nodes.get(k)
		e.Int(len(n.Members))
		if len(n.members) == len(n.Members) {
			for _, h := range n.members {
				e.Int(int(h))
			}
			continue
		}
		// Hand-constructed nodes carry only ID strings; fall back to parsing.
		for _, id := range n.Members {
			encodeTripleID(e, id)
		}
	}

	iso := make([][2]string, 0, sg.isoIndex.n)
	sg.isoIndex.forEach(func(k, id string) { iso = append(iso, [2]string{k, id}) })
	sort.Slice(iso, func(i, j int) bool { return iso[i][0] < iso[j][0] })
	e.Int(len(iso))
	for _, kv := range iso {
		encodeTripleID(e, kv[1])
	}
	e.Int(sg.maxGroup)
}

// encodeTripleID appends the handle of the triple with the given ID, or a
// value no decoder accepts as a handle when id is not a triple ID.
func encodeTripleID(e *wal.Encoder, id string) {
	h, ok := kg.ParseTripleID(id)
	if !ok {
		h = -1 // rejected on decode
	}
	e.Int(int(h))
}

// DecodeSG rebuilds an SG from d against g (the inverse of EncodeTo); keyed
// reads a body that stores keys (see above). Every handle must resolve to a
// live triple of g and appear once in the body; a node's members must share
// the first member's (subject, predicate), compared by handle; keys must
// ascend, so none repeats, and no isolated point may share a node's key. A
// stored key must equal the one derived from its triples. Anything else is an
// error, so a body from a peer cannot install a group the graph does not
// hold.
func DecodeSG(d *wal.Decoder, g *kg.Graph, keyed bool) (*SG, error) {
	sg := &SG{graph: g}
	seen := make([]uint64, (int(g.TripleSlots())+63)/64)
	// claim resolves handle h to its live triple and marks it used.
	claim := func(h int32) (*kg.Triple, error) {
		t := g.TripleAt(h)
		if t == nil {
			return nil, fmt.Errorf("handle %d is not a live triple", h)
		}
		if seen[h/64]&(1<<(h%64)) != 0 {
			return nil, fmt.Errorf("handle %d appears twice", h)
		}
		seen[h/64] |= 1 << (h % 64)
		return t, nil
	}

	prevKey := ""
	nNodes := d.Int()
	for i := 0; i < nNodes && d.Err() == nil; i++ {
		var stored string
		if keyed {
			stored = d.String()
		}
		m := d.Int()
		members := make([]*kg.Triple, 0, min(m, d.Remaining())) // a handle takes at least a byte
		var subjH, predH int32
		for j := 0; j < m && d.Err() == nil; j++ {
			h := int32(d.Int())
			if d.Err() != nil {
				break
			}
			t, err := claim(h)
			if err != nil {
				return nil, fmt.Errorf("linegraph: decode: node %d member: %w", i, err)
			}
			s, p := g.TripleKeyHandles(h)
			if j == 0 {
				subjH, predH = s, p
			} else if s != subjH || p != predH {
				return nil, fmt.Errorf("linegraph: decode: node %d mixes keys: member %s is keyed %q, member %s %q",
					i, members[0].ID, members[0].Key(), t.ID, t.Key())
			}
			members = append(members, t)
		}
		if d.Err() != nil {
			break
		}
		if len(members) < 2 {
			return nil, fmt.Errorf("linegraph: decode: node %d has %d members (need >= 2)", i, len(members))
		}
		key := stored
		if !keyed {
			key = members[0].Key()
		} else if !isKeyOf(key, members[0]) {
			return nil, fmt.Errorf("linegraph: decode: node %q holds members keyed %q", key, members[0].Key())
		}
		if i > 0 && key <= prevKey {
			return nil, fmt.Errorf("linegraph: decode: node %q follows node %q", key, prevKey)
		}
		prevKey = key
		sg.putNode(key, newHomologousNode(key, members))
	}

	prevKey = ""
	nIso := d.Int()
	for i := 0; i < nIso && d.Err() == nil; i++ {
		var key string
		var h int32
		if keyed {
			key = d.String()
			id := d.String()
			var ok bool
			if h, ok = kg.ParseTripleID(id); !ok && d.Err() == nil {
				return nil, fmt.Errorf("linegraph: decode: isolated point %q names unknown triple %q", key, id)
			}
		} else {
			h = int32(d.Int())
		}
		if d.Err() != nil {
			break
		}
		t, err := claim(h)
		if err != nil {
			return nil, fmt.Errorf("linegraph: decode: isolated point %d: %w", i, err)
		}
		if !keyed {
			key = t.Key()
		} else if !isKeyOf(key, t) {
			return nil, fmt.Errorf("linegraph: decode: isolated point %q names triple %s keyed %q", key, t.ID, t.Key())
		}
		if i > 0 && key <= prevKey {
			return nil, fmt.Errorf("linegraph: decode: isolated point %q follows %q", key, prevKey)
		}
		prevKey = key
		if _, ok := sg.nodes.get(key); ok {
			return nil, fmt.Errorf("linegraph: decode: isolated point %q is also a homologous node", key)
		}
		sg.isoIndex.put(key, t.ID) // the graph's copy of the ID, not a second one
	}
	if mg := d.Int(); mg > sg.maxGroup {
		sg.maxGroup = mg
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return sg, nil
}

// isKeyOf reports whether key is t.Key(), without building it.
func isKeyOf(key string, t *kg.Triple) bool {
	s := len(t.Subject)
	return len(key) == s+1+len(t.Predicate) && key[:s] == t.Subject && key[s] == 0 && key[s+1:] == t.Predicate
}
