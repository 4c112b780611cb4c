package core

import (
	"bytes"
	"testing"
	"unsafe"

	"multirag/internal/adapter"
	"multirag/internal/kg"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// ingestAll ingests ingestBatch(k) for each k, each as its own commit.
func ingestAll(t *testing.T, s *System, ks ...int) {
	t.Helper()
	for _, k := range ks {
		if _, err := s.Ingest(ingestBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// seededFrom seeds a fresh replica from body, decoded against ref if given.
func seededFrom(t *testing.T, body []byte, ref ...SnapshotHandle) *System {
	t.Helper()
	r := NewSystem(durTestConfig())
	if err := r.SeedReplica(body, 0, ref...); err != nil {
		t.Fatalf("SeedReplica: %v", err)
	}
	return r
}

// chunksOf returns the chunks s serves, in row order, as the index holds them.
func chunksOf(s *System) []retrieval.Chunk {
	var out []retrieval.Chunk
	s.snap.Load().index.ForEachEmbedded(func(c retrieval.Chunk, _ retrieval.Vector) { out = append(out, c) })
	return out
}

// sameString reports whether a and b are one string: the same bytes in memory.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// sharedRows counts the live triples at which r holds g's *Triple itself.
func sharedRows(r, g *kg.Graph) (shared, live int) {
	for h := int32(0); h < r.TripleSlots(); h++ {
		if t := r.TripleAt(h); t != nil {
			live++
			if h < g.TripleSlots() && g.TripleAt(h) == t {
				shared++
			}
		}
	}
	return shared, live
}

// TestSeedReplicaSharesPrimaryState pins what seeding against a reference
// snapshot shares and what it must not change. One body decodes to the same
// state — Encode bytes, digest and derived vectors and line graph — with the
// primary's handle, with a foreign system's, with one that shares a prefix of
// its history and with none; and a foreign body decoded against the
// primary's handle (a corrupting reseed) is the foreign state. With the
// primary's handle every entity, live triple and chunk string is the
// primary's own object at the same position. A commit on the primary,
// applied to the replica, then leaves both engines' earlier rows as they were
// and their digests equal.
func TestSeedReplicaSharesPrimaryState(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	ingestAll(t, primary, 0, 1, 2, 3, 4, 5)
	foreign := NewSystem(durTestConfig())
	for k := 0; k < 4; k++ {
		if _, err := foreign.Ingest(disjointBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	overlap := NewSystem(durTestConfig())
	ingestAll(t, overlap, 0, 1, 9)

	handle := primary.ServingHandle()
	body, foreignBody := handle.Encode(), foreign.ServingHandle().Encode()
	for _, tc := range []struct {
		name string
		body []byte
		src  *System
		ref  []SnapshotHandle
	}{
		{"primary handle", body, primary, []SnapshotHandle{handle}},
		{"foreign handle", body, primary, []SnapshotHandle{foreign.ServingHandle()}},
		{"overlapping handle", body, primary, []SnapshotHandle{overlap.ServingHandle()}},
		{"no handle", body, primary, nil},
		{"foreign body, primary handle", foreignBody, foreign, []SnapshotHandle{handle}},
	} {
		r := seededFrom(t, tc.body, tc.ref...)
		if !bytes.Equal(r.ServingHandle().Encode(), tc.body) {
			t.Fatalf("%s: re-encoded state differs from the body it was seeded from", tc.name)
		}
		if r.SnapshotDigest() != tc.src.SnapshotDigest() {
			t.Fatalf("%s: digest %016x, source %016x", tc.name, r.SnapshotDigest(), tc.src.SnapshotDigest())
		}
		if !bytes.Equal(snapBytes(r), snapBytes(seededFrom(t, tc.body))) {
			t.Fatalf("%s: derived state differs from the decode without a reference", tc.name)
		}
	}
	// A reference that shares a prefix of the history shares some rows, not
	// all.
	shared, live := sharedRows(seededFrom(t, body, overlap.ServingHandle()).Graph(), overlap.Graph())
	if shared == 0 || shared == live {
		t.Fatalf("overlapping handle: %d of %d live triples shared, want some but not all", shared, live)
	}

	replica := seededFrom(t, body, handle)
	pg, rg := primary.Graph(), replica.Graph()
	for h := int32(0); h < pg.EntitySlots(); h++ {
		if rg.EntityAt(h) != pg.EntityAt(h) {
			t.Fatalf("entity %d is a copy of the primary's", h)
		}
	}
	if shared, live := sharedRows(rg, pg); shared != live || live != pg.NumTriples() {
		t.Fatalf("%d of %d live triples are the primary's, want all %d", shared, live, pg.NumTriples())
	}
	pc, rc := chunksOf(primary), chunksOf(replica)
	if len(pc) == 0 || len(rc) != len(pc) {
		t.Fatalf("replica holds %d chunks, primary %d", len(rc), len(pc))
	}
	for i := range pc {
		if !sameString(rc[i].Text, pc[i].Text) || !sameString(rc[i].ID, pc[i].ID) || !sameString(rc[i].DocID, pc[i].DocID) {
			t.Fatalf("chunk %d (%s) holds a copy of a primary string", i, pc[i].ID)
		}
	}

	// Earlier rows, by value, before the primary commits again.
	type rows struct {
		ents   []kg.Entity
		trs    []kg.Triple
		chunks []retrieval.Chunk
	}
	capture := func(s *System) rows {
		var out rows
		g := s.Graph()
		for h := int32(0); h < g.EntitySlots(); h++ {
			out.ents = append(out.ents, *g.EntityAt(h))
		}
		for h := int32(0); h < g.TripleSlots(); h++ {
			var tr kg.Triple // a removed slot reads as the zero triple
			if p := g.TripleAt(h); p != nil {
				tr = *p
			}
			out.trs = append(out.trs, tr)
		}
		out.chunks = chunksOf(s)
		return out
	}
	before := capture(primary)
	oldEnts := make([]*kg.Entity, pg.EntitySlots())
	for h := range oldEnts {
		oldEnts[h] = pg.EntityAt(int32(h))
	}
	lsn := primary.ReplicationLSN()
	ingestAll(t, primary, 6)
	if err := replica.ReplicaApply(logRecords(t, primary, lsn, lsn+1)[0]); err != nil {
		t.Fatalf("ReplicaApply: %v", err)
	}
	for _, s := range []*System{primary, replica} {
		after := capture(s)
		for h, e := range before.ents {
			if *oldEnts[h] != e {
				t.Fatalf("entity %d changed in place: %+v, was %+v", h, *oldEnts[h], e)
			}
			if got := after.ents[h]; got.ID != e.ID || got.Name != e.Name {
				t.Fatalf("entity %d is %+v, was %+v", h, got, e)
			}
		}
		for h, tr := range before.trs {
			if after.trs[h] != tr {
				t.Fatalf("triple %d is %+v, was %+v", h, after.trs[h], tr)
			}
		}
		for i, c := range before.chunks {
			if after.chunks[i] != c {
				t.Fatalf("chunk %d is %+v, was %+v", i, after.chunks[i], c)
			}
		}
	}
	if replica.SnapshotDigest() != primary.SnapshotDigest() || !bytes.Equal(snapBytes(replica), snapBytes(primary)) {
		t.Fatal("replica and primary differ after one applied record")
	}
}

// TestSeedBesidePrimaryEmbedsNothing: a replica seeded against the snapshot
// its body was encoded from copies every row's posting entries and embeds no
// chunk; against a snapshot whose rows match a prefix of the body's it embeds
// exactly the rows past that prefix; with none it embeds every row, as
// recovery does. Not parallel: retrieval.EmbedCalls counts process-wide.
func TestSeedBesidePrimaryEmbedsNothing(t *testing.T) {
	primary := NewSystem(durTestConfig())
	ingestAll(t, primary, 0, 1, 2, 3, 4, 5)
	overlap := NewSystem(durTestConfig())
	ingestAll(t, overlap, 0, 1, 9)
	handle := primary.ServingHandle()
	body := handle.Encode()
	pc, oc := chunksOf(primary), chunksOf(overlap)
	prefix := 0
	for prefix < min(len(pc), len(oc)) && pc[prefix].Text == oc[prefix].Text {
		prefix++
	}
	if prefix == 0 || prefix == len(pc) {
		t.Fatalf("overlapping handle shares %d of %d rows, want some but not all", prefix, len(pc))
	}
	for _, tc := range []struct {
		name string
		ref  []SnapshotHandle
		want int
	}{
		{"primary handle", []SnapshotHandle{handle}, 0},
		{"overlapping handle", []SnapshotHandle{overlap.ServingHandle()}, len(pc) - prefix},
		{"no handle", nil, len(pc)},
	} {
		before := retrieval.EmbedCalls()
		seededFrom(t, body, tc.ref...)
		if got := retrieval.EmbedCalls() - before; got != uint64(tc.want) {
			t.Errorf("%s: seed embedded %d chunks, want %d of %d", tc.name, got, tc.want, len(pc))
		}
	}
}

// TestSeedReplicaDuringCommits seeds replicas against a captured snapshot
// while another goroutine commits into its system. The first of those
// commits claims the snapshot's lineage and appends in place behind its
// length, in the chunk slice and posting lists the decode reads below it;
// the seeded state must still be the captured one. Under -race it also
// checks that the decode reads nothing the commits write.
func TestSeedReplicaDuringCommits(t *testing.T) {
	primary := NewSystem(durTestConfig())
	var files []adapter.RawFile
	for k := 0; k < 200; k++ {
		files = append(files, disjointBatch(k)...)
		files = append(files, ingestBatch(k)[1]) // one text chunk each
	}
	if _, err := primary.Ingest(files); err != nil {
		t.Fatal(err)
	}
	handle := primary.ServingHandle()
	body := handle.Encode()
	want := snapBytes(seededFrom(t, body))

	done := make(chan error, 1)
	go func() {
		for k := 0; k < 8; k++ {
			if _, err := primary.Ingest(ingestBatch(k)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var err error
	seeds := 0
	for finished := false; !finished || seeds == 0; seeds++ {
		select {
		case err = <-done:
			finished = true
		default:
		}
		if got := snapBytes(seededFrom(t, body, handle)); !bytes.Equal(got, want) {
			t.Fatalf("seed %d beside the commits differs from the captured state", seeds)
		}
	}
	t.Logf("%d seeds beside 8 commits", seeds)
	if err != nil {
		t.Fatal(err)
	}
}
