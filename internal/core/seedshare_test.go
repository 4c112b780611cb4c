package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"multirag/internal/adapter"
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

// cloneSeeded seeds a fresh replica the way a ReplicaSet does: the clone of
// primary's published snapshot ReplicationSeed takes, installed at the
// position captured with it, the seed's lease held for the rest of the test.
// It returns the replica, that position and the clone's handle — the
// replica's first snapshot.
func cloneSeeded(t *testing.T, primary *System) (*System, uint64, SnapshotHandle) {
	t.Helper()
	h, lsn, lease, err := primary.ReplicationSeed()
	if err != nil {
		t.Fatalf("ReplicationSeed: %v", err)
	}
	t.Cleanup(lease.Release)
	r := NewSystem(primary.Config())
	r.SeedReplicaClone(h, lsn)
	return r, lsn, h
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

// sameBacking reports whether a and b are views of one backing array.
func sameBacking(a, b []int32) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// fullBlocks returns the address of each full block of s's retrieval index —
// chunk rows and posting lists — by its column and place.
func fullBlocks(s *System) map[[2]int]any {
	out := map[[2]int]any{}
	s.Index().ForEachFullBlock(func(list, k int, first any) { out[[2]int{list, k}] = first })
	return out
}

// TestSeedReplicaSharesPrimaryState pins what a clone seed shares and when it
// stops. Seeded, the replica holds the primary's state — Encode bytes, digest,
// derived vectors and line graph — in the primary's own memory: every
// entity, live triple and chunk string is the primary's object, and every
// (subject, predicate) key posting list the primary's backing array. The
// primary's next commit claims the lineage and leaves the replica as seeded.
// The replica's first apply of that record loses the claim and forks: each
// key list the record appends to becomes the replica's own, the others stay
// shared, and neither the primary's digest nor any list of the primary's
// moves. In the
// retrieval index the fork copies only partly filled tail blocks: after its
// first applies, every block that was full when the replica was seeded is
// still the primary's, by address.
func TestSeedReplicaSharesPrimaryState(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	var bulk []adapter.RawFile // enough chunks and postings to fill blocks
	for k := 0; k < 200; k++ {
		bulk = append(bulk, disjointBatch(k)...)
		bulk = append(bulk, ingestBatch(k)[1])
	}
	if _, err := primary.Ingest(bulk); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, primary, 0, 1, 2, 3, 4, 5)
	replica, lsn, _ := cloneSeeded(t, primary)
	seeded := snapBytes(replica)
	seedBlocks := fullBlocks(replica)
	if len(seedBlocks) == 0 {
		t.Fatal("the seeded index has no full block to share")
	}
	if replica.SnapshotDigest() != primary.SnapshotDigest() || !bytes.Equal(seeded, snapBytes(primary)) {
		t.Fatal("a clone seed differs from the primary it was cloned from")
	}
	pg, rg := primary.Graph(), replica.Graph()
	for h := int32(0); int(h) < pg.NumEntities(); h++ {
		if rg.EntityAt(h) != pg.EntityAt(h) {
			t.Fatalf("entity %d is a copy of the primary's", h)
		}
	}
	pg.ForEachKeyPosting(func(s, p int32, lst []int32) {
		if !sameBacking(rg.KeyPosting(s, p), lst) {
			t.Fatalf("key posting (%d, %d) is a copy of the primary's", s, p)
		}
	})
	for h := int32(0); h < pg.TripleSlots(); h++ {
		if rg.TripleAt(h) != pg.TripleAt(h) {
			t.Fatalf("triple %d is a copy of the primary's", h)
		}
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

	ingestAll(t, primary, 6)
	if !bytes.Equal(snapBytes(replica), seeded) {
		t.Fatal("the primary's commit changed the replica's state")
	}
	want := primary.SnapshotDigest()
	pg = primary.Graph()
	lists := map[[2]int32][]int32{}
	pg.ForEachKeyPosting(func(s, p int32, lst []int32) { lists[[2]int32{s, p}] = lst })
	if err := replica.ReplicaApply(logRecords(t, primary, lsn, lsn+1)[0]); err != nil {
		t.Fatalf("ReplicaApply: %v", err)
	}
	if primary.SnapshotDigest() != want || replica.SnapshotDigest() != want || !bytes.Equal(snapBytes(replica), snapBytes(primary)) {
		t.Fatal("after one applied record the replica differs from the primary, or the primary moved")
	}
	rg = replica.Graph()
	forked, shared := 0, 0
	for k, l := range lists {
		if p := pg.KeyPosting(k[0], k[1]); !sameBacking(p, l) || !slices.Equal(p, l) {
			t.Fatalf("the replica's apply moved the primary's key posting %v", k)
		}
		switch r := rg.KeyPosting(k[0], k[1]); {
		case len(r) == 0:
		case sameBacking(r, l):
			shared++
		default:
			forked++
		}
	}
	if forked == 0 || shared == 0 {
		t.Fatalf("after its first apply the replica owns %d key postings and shares %d; want some of each", forked, shared)
	}

	ingestAll(t, primary, 7, 8, 9)
	for _, rec := range logRecords(t, primary, lsn+1, primary.ReplicationLSN()) {
		if err := replica.ReplicaApply(rec); err != nil {
			t.Fatalf("ReplicaApply: %v", err)
		}
	}
	if replica.SnapshotDigest() != primary.SnapshotDigest() {
		t.Fatal("after its first applies the replica differs from the primary")
	}
	rb, pb := fullBlocks(replica), fullBlocks(primary)
	for at, first := range seedBlocks {
		if rb[at] != first || pb[at] != first {
			t.Fatalf("full block %d of column %d at the seed is no longer the primary's in both engines", at[1], at[0])
		}
	}
	copied := 0
	for at, first := range rb {
		if pb[at] != first {
			copied++
		}
	}
	if copied == 0 {
		t.Fatal("the replica's applies filled no block of its own: the test shows no fork")
	}
	t.Logf("%d full blocks shared since the seed; %d filled by the replica in copies of its own", len(seedBlocks), copied)
}

// TestSeedBesidePrimaryEmbedsNothing: a replica seeded beside its primary, a
// clone of the primary's snapshot, embeds no chunk, and its first apply —
// the fork — embeds only the record's own chunks; a replica seeded from a
// checkpoint body embeds every row, as recovery does. Not parallel:
// retrieval.EmbedCalls counts process-wide.
func TestSeedBesidePrimaryEmbedsNothing(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	ingestAll(t, primary, 0, 1, 2, 3, 4, 5)
	rows := primary.Index().Len()
	body := primary.ServingHandle().Encode()

	before := retrieval.EmbedCalls()
	replica, lsn, _ := cloneSeeded(t, primary)
	if got := retrieval.EmbedCalls() - before; got != 0 {
		t.Errorf("a clone seed embedded %d chunks, want 0", got)
	}
	ingestAll(t, primary, 6)
	rec := logRecords(t, primary, lsn, lsn+1)[0]
	before = retrieval.EmbedCalls()
	if err := replica.ReplicaApply(rec); err != nil {
		t.Fatal(err)
	}
	if got, want := retrieval.EmbedCalls()-before, primary.Index().Len()-rows; got != uint64(want) {
		t.Errorf("the first apply after a clone seed embedded %d chunks, want the record's %d", got, want)
	}

	before = retrieval.EmbedCalls()
	if err := NewSystem(durTestConfig()).SeedReplica(body, 0); err != nil {
		t.Fatal(err)
	}
	if got := retrieval.EmbedCalls() - before; got != uint64(rows) {
		t.Errorf("a checkpoint-body seed embedded %d chunks, want all %d", got, rows)
	}
}

// TestSeedReplicaDuringCommits puts two writers on one lineage: replicas are
// clone-seeded while a goroutine commits into their primary, then apply the
// primary's records while it goes on committing. The primary claims each
// record's rows first and appends in place behind the length its clones read
// to; each replica loses the claim on its first apply and forks. Every
// replica's digest must equal the primary's at every position it reaches, and
// the snapshot each replica was seeded with must still encode to the bytes it
// had, so neither engine wrote storage the other reads. Under -race it also
// checks that no read of one engine races a write of the other.
func TestSeedReplicaDuringCommits(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	var files []adapter.RawFile
	for k := 0; k < 200; k++ {
		files = append(files, disjointBatch(k)...)
		files = append(files, ingestBatch(k)[1]) // one text chunk each
	}
	if _, err := primary.Ingest(files); err != nil {
		t.Fatal(err)
	}

	const commits, seeds = 16, 3
	var mu sync.Mutex
	digests := map[uint64]uint64{primary.ReplicationLSN(): primary.SnapshotDigest()}
	committed := make(chan struct{}, commits)
	done := make(chan error, 1)
	go func() {
		for k := 0; k < commits; k++ {
			if _, err := primary.Ingest(ingestBatch(k)); err != nil {
				done <- err
				return
			}
			lsn, digest := primary.ReplicationLSN(), primary.SnapshotDigest() // the only writer
			mu.Lock()
			digests[lsn] = digest
			mu.Unlock()
			committed <- struct{}{}
		}
		done <- nil
	}()

	type seeded struct {
		sys     *System
		from    uint64
		tail    *wal.Tail
		handle  SnapshotHandle
		body    []byte            // handle's encoding when it was seeded
		reached map[uint64]uint64 // position → the replica's digest there
	}
	var replicas []*seeded
	for i := 0; i < seeds; i++ {
		r, lsn, h := cloneSeeded(t, primary)
		tail, err := primary.TailWAL(lsn)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, &seeded{r, lsn, tail, h, h.Encode(), map[uint64]uint64{lsn: r.SnapshotDigest()}})
		<-committed // the next seed a commit later
	}
	applyAll := func() {
		to := primary.ReplicationLSN()
		for _, s := range replicas {
			for {
				payload, ok, err := s.tail.Next(to)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if err := s.sys.ReplicaApply(payload); err != nil {
					t.Fatal(err)
				}
				s.reached[s.tail.LSN()] = s.sys.SnapshotDigest()
			}
		}
	}
	for k := seeds; k < commits; k++ {
		applyAll()
		<-committed
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	applyAll()

	mu.Lock()
	defer mu.Unlock()
	from := make([]uint64, len(replicas))
	for i, s := range replicas {
		from[i] = s.from
		for lsn, got := range s.reached {
			if want, ok := digests[lsn]; !ok || got != want {
				t.Fatalf("replica %d at position %d: digest %016x, primary %016x", i, lsn, got, want)
			}
		}
		if got, want := s.sys.ReplicationLSN(), primary.ReplicationLSN(); got != want {
			t.Fatalf("replica %d at position %d, primary at %d", i, got, want)
		}
		if !bytes.Equal(s.handle.Encode(), s.body) {
			t.Fatalf("replica %d's seed snapshot changed once both engines wrote", i)
		}
	}
	t.Logf("replicas seeded at positions %v beside commits up to %d", from, primary.ReplicationLSN())
}
