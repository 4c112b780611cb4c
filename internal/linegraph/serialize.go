package linegraph

import (
	"fmt"
	"sort"

	"multirag/internal/kg"
	"multirag/internal/wal"
)

// Checkpoint serialization of the homologous line graph. Only the irreducible
// state is stored: each homologous node as its key plus member triple
// handles, each isolated point as its key plus triple ID, and the monotone
// maxGroup bound (which can exceed the value recomputable from the live nodes
// after destructive mutation, so it cannot be derived). Nodes are rebuilt
// through newHomologousNode against the already-decoded graph — the same
// constructor Build and BuildDelta use — so a recovered SG is structurally
// identical to the one that was checkpointed, and the lazy caches (isolated
// list, attribute index) refill on first use exactly as after a Build.
//
// Keys are emitted in sorted order, making the encoding deterministic: two
// equivalent SGs serialize to identical bytes, which is what lets the crash
// tests compare recovered state against the pre-crash snapshot byte for byte.

// EncodeTo serializes the SG into e.
func (sg *SG) EncodeTo(e *wal.Encoder) {
	keys := make([]string, 0, sg.nodes.n)
	sg.nodes.forEach(func(k string, _ *HomologousNode) { keys = append(keys, k) })
	sort.Strings(keys)
	e.Int(len(keys))
	for _, k := range keys {
		n, _ := sg.nodes.get(k)
		e.String(k)
		e.Int(len(n.Members))
		if len(n.members) == len(n.Members) {
			for _, h := range n.members {
				e.Int(int(h))
			}
			continue
		}
		// Hand-constructed nodes carry only ID strings; fall back to parsing.
		for _, id := range n.Members {
			h, ok := kg.ParseTripleID(id)
			if !ok {
				h = -1 // rejected on decode
			}
			e.Int(int(h))
		}
	}

	iso := make([][2]string, 0, sg.isoIndex.n)
	sg.isoIndex.forEach(func(k, id string) { iso = append(iso, [2]string{k, id}) })
	sort.Slice(iso, func(i, j int) bool { return iso[i][0] < iso[j][0] })
	e.Int(len(iso))
	for _, kv := range iso {
		e.String(kv[0])
		e.String(kv[1])
	}
	e.Int(sg.maxGroup)
}

// DecodeSG rebuilds an SG from d against g (the inverse of EncodeTo). Member
// handles must resolve to live triples of g whose key matches the node's.
func DecodeSG(d *wal.Decoder, g *kg.Graph) (*SG, error) {
	sg := &SG{graph: g}
	nNodes := d.Int()
	for i := 0; i < nNodes && d.Err() == nil; i++ {
		key := d.String()
		m := d.Int()
		members := make([]*kg.Triple, 0, min(m, d.Remaining())) // a handle takes at least a byte
		for j := 0; j < m && d.Err() == nil; j++ {
			h := int32(d.Int())
			t := g.TripleAt(h)
			if t == nil {
				return nil, fmt.Errorf("linegraph: decode: node %q member handle %d is not a live triple", key, h)
			}
			members = append(members, t)
		}
		if d.Err() != nil {
			break
		}
		if len(members) < 2 {
			return nil, fmt.Errorf("linegraph: decode: node %q has %d members (need >= 2)", key, len(members))
		}
		if members[0].Key() != key {
			return nil, fmt.Errorf("linegraph: decode: node %q holds members keyed %q", key, members[0].Key())
		}
		sg.putNode(key, newHomologousNode(key, members))
	}
	nIso := d.Int()
	for i := 0; i < nIso && d.Err() == nil; i++ {
		key := d.String()
		id := d.String()
		if d.Err() != nil {
			break
		}
		t, ok := g.Triple(id)
		if !ok {
			return nil, fmt.Errorf("linegraph: decode: isolated point %q names unknown triple %q", key, id)
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
