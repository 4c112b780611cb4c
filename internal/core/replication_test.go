package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/wal"
)

// seededReplica builds what NewReplicaSet builds for one replica: a replica
// seeded from primary's ReplicationSeed and a cursor over primary's log at
// the seed position, with the seed's lease held for the rest of the test.
func seededReplica(t *testing.T, primary *System) (*System, *wal.Tail) {
	t.Helper()
	replica, lsn, _ := cloneSeeded(t, primary)
	tail, err := primary.TailWAL(lsn)
	if err != nil {
		t.Fatalf("TailWAL: %v", err)
	}
	return replica, tail
}

// catchUp applies every record primary has committed past the replica's
// position, read through tail.
func catchUp(t *testing.T, primary, replica *System, tail *wal.Tail) {
	t.Helper()
	for {
		lsn := tail.LSN()
		payload, ok, err := tail.Next(primary.ReplicationLSN())
		if err != nil {
			t.Fatalf("read LSN %d: %v", lsn, err)
		}
		if !ok {
			return
		}
		if err := replica.ReplicaApply(payload); err != nil {
			t.Fatalf("ReplicaApply LSN %d: %v", lsn, err)
		}
	}
}

// logRecords returns copies of the records primary logged at LSNs [from, to),
// read through the cursor a replica uses.
func logRecords(t testing.TB, primary *System, from, to uint64) [][]byte {
	t.Helper()
	tail, err := primary.TailWAL(from)
	if err != nil {
		t.Fatalf("TailWAL: %v", err)
	}
	var out [][]byte
	for {
		payload, ok, err := tail.Next(to)
		if err != nil {
			t.Fatalf("read LSN %d: %v", tail.LSN(), err)
		}
		if !ok {
			return out
		}
		out = append(out, bytes.Clone(payload))
	}
}

// TestReplicationShipByteIdentical pins the replication invariant: a replica
// seeded from ReplicationSeed that reads every committed record out of the
// primary's log and replays it through ReplicaApply holds a snapshot
// byte-identical to the primary's after each position, with matching
// positions and digests — and the digest the primary keeps at a verification
// point is its digest there.
func TestReplicationShipByteIdentical(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	replica, tail := seededReplica(t, primary)
	if tail.LSN() != 0 {
		t.Fatalf("seed position = %d, want 0", tail.LSN())
	}
	for i, b := range seqBatches() {
		if _, err := primary.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
		catchUp(t, primary, replica, tail)
		if !bytes.Equal(snapBytes(replica), snapBytes(primary)) {
			t.Fatalf("replica state diverged after record %d", i)
		}
	}
	if got, want := replica.ReplicationLSN(), primary.ReplicationLSN(); got != want || want != 3 {
		t.Fatalf("replica position %d, primary %d, want 3", got, want)
	}
	if replica.SnapshotDigest() != primary.SnapshotDigest() {
		t.Fatal("anti-entropy digests differ on byte-identical snapshots")
	}
	if _, ok := primary.DigestAt(digestEvery); ok {
		t.Fatal("DigestAt a verification point not reached yet")
	}
	for k := 0; primary.ReplicationLSN() < digestEvery; k++ {
		if _, err := primary.Ingest(ingestBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, primary, replica, tail)
	digest, ok := primary.DigestAt(digestEvery)
	if !ok || digest() != replica.SnapshotDigest() {
		t.Fatalf("DigestAt(%d) ok=%v; want the replica's digest there", digestEvery, ok)
	}
	if _, ok := primary.DigestAt(digestEvery - 1); ok {
		t.Fatal("DigestAt a position between verification points")
	}
}

// TestDigestPointsNeedAReader: a primary keeps verification points only
// while a replica holds a lease on its log, and keeps the last digestKeep.
func TestDigestPointsNeedAReader(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	ingestTo := func(lsn uint64) {
		t.Helper()
		for k := 0; primary.ReplicationLSN() < lsn; k++ {
			if _, err := primary.Ingest(ingestBatch(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingestTo(digestEvery)
	if _, ok := primary.DigestAt(digestEvery); ok {
		t.Fatal("a primary no replica reads kept a verification point")
	}
	lease := primary.AcquireWALLease(primary.ReplicationLSN())
	defer lease.Release()
	ingestTo((digestKeep + 2) * digestEvery)
	if _, ok := primary.DigestAt(2 * digestEvery); ok {
		t.Fatal("a verification point older than the last digestKeep was kept")
	}
	for p := uint64(3); p <= digestKeep+2; p++ {
		if _, ok := primary.DigestAt(p * digestEvery); !ok {
			t.Fatalf("verification point %d was not kept", p*digestEvery)
		}
	}
}

// TestReplicationAttachMidStreamMissesNothing pins the seed capture: a
// replica seeded after commits have already happened opens its cursor at the
// captured position — mid-segment, stepping over the records before it — and
// misses nothing after it. A second seed is just a second lease.
func TestReplicationAttachMidStreamMissesNothing(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	batches := seqBatches()
	if _, err := primary.Ingest(batches[0]); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	replica, tail := seededReplica(t, primary)
	if tail.LSN() != 1 {
		t.Fatalf("seed position = %d, want 1", tail.LSN())
	}
	second, secondTail := seededReplica(t, primary)
	for _, b := range batches[1:] {
		if _, err := primary.Ingest(b); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	catchUp(t, primary, replica, tail)
	catchUp(t, primary, second, secondTail)
	if !bytes.Equal(snapBytes(replica), snapBytes(primary)) || !bytes.Equal(snapBytes(second), snapBytes(primary)) {
		t.Fatal("mid-stream-seeded replica diverged from primary")
	}
}

// TestReplicationDurablePrimaryShipsWALPositions pins that replication
// positions are exactly the WAL LSNs, so leases and segment pruning speak the
// coordinate replicas read at, and that an in-memory system, having no log,
// seeds no replica.
func TestReplicationDurablePrimaryShipsWALPositions(t *testing.T) {
	s, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	ingestSeq(t, s)
	if st := s.DurabilityStatus(); s.ReplicationLSN() != st.NextLSN || st.NextLSN != 3 {
		t.Fatalf("replication position %d, WAL next LSN %d", s.ReplicationLSN(), st.NextLSN)
	}
	// A fresh in-memory replica replaying the log from LSN 0 matches the
	// durable primary byte for byte.
	replica := NewSystem(s.Config())
	tail, err := s.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	catchUp(t, s, replica, tail)
	if tail.LSN() != 3 || !bytes.Equal(snapBytes(replica), snapBytes(s)) {
		t.Fatalf("replica of durable primary at LSN %d diverged", tail.LSN())
	}

	mem := NewSystem(durTestConfig())
	if _, _, _, err := mem.ReplicationSeed(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ReplicationSeed on an in-memory system: %v", err)
	}
	if _, err := mem.TailWAL(0); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("TailWAL on an in-memory system: %v", err)
	}
}

// TestReplicationSeedHoldsItsSegment: the lease ReplicationSeed returns is
// taken with the capture, so checkpoints that land before the replica has
// read anything — two of them, so not even the fallback checkpoint's tail
// keeps the segment — prune around the seed position, never through it.
func TestReplicationSeedHoldsItsSegment(t *testing.T) {
	fs := wal.NewMemFS()
	primary, _ := openDurable(t, fs, durTestConfig())
	batches := seqBatches()
	if _, err := primary.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	replica, tail := seededReplica(t, primary)
	for _, b := range batches[1:] {
		if _, err := primary.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if err := primary.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if names, _ := fs.ReadDir(durDir); !slices.Contains(names, "wal-0000000000000000.log") {
		t.Fatalf("pruning removed the segment holding the seed position: %v", names)
	}
	catchUp(t, primary, replica, tail)
	if !bytes.Equal(snapBytes(replica), snapBytes(primary)) {
		t.Fatal("replica seeded before two checkpoints diverged")
	}
}

// TestPublishedWakesReaders: every publish advances the position and closes
// the channel readers wait on.
func TestPublishedWakesReaders(t *testing.T) {
	s, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	lsn, wake := s.Published()
	select {
	case <-wake:
		t.Fatal("wake channel closed before any publish")
	default:
	}
	if _, err := s.Ingest(seqBatches()[0]); err != nil {
		t.Fatal(err)
	}
	<-wake
	if next, _ := s.Published(); next != lsn+1 {
		t.Fatalf("position %d after one publish from %d", next, lsn)
	}
}

// TestCheckpointFallbackOnCorruptNewest is the satellite crash-matrix case:
// media corruption destroys the newest checkpoint after pruning has run, and
// recovery falls back to the retained older checkpoint with a longer WAL
// replay instead of failing — possible only because RemoveBelow keeps the
// fallback checkpoint and its forward tail.
func TestCheckpointFallbackOnCorruptNewest(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := openDurable(t, fs, durTestConfig())
	ingestSeq(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := s.Ingest([]adapter.RawFile{{Domain: "flights", Source: "airport-api", Name: "late", Format: "text",
		Content: []byte("The status of MU551 is Boarding.")}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	want := snapBytes(s)

	// Flip one body bit of the newest checkpoint (LSN 4). Its CRC now fails.
	newest := filepath.Join(durDir, fmt.Sprintf("checkpoint-%016x.ckpt", 4))
	if err := fs.FlipBit(newest, 64); err != nil {
		t.Fatalf("FlipBit(%s): %v", newest, err)
	}

	s2, info := openDurable(t, fs.Crash(nil), durTestConfig())
	if info.CheckpointLSN != 3 || info.RecordsReplayed != 1 {
		t.Fatalf("fallback recovery info = %+v, want checkpoint 3 + 1 replayed record", info)
	}
	if !bytes.Equal(snapBytes(s2), want) {
		t.Fatal("fallback recovery diverged from the pre-corruption state")
	}
	requireAnswer(t, s2, "What is the status of MU551?", "Boarding")
}

// TestWALLeasePreservesLaggingFeedTail is the retention-lease case: while a
// replica still holds a lease at an old position, checkpoint pruning keeps
// every segment from that position on, so the lagging replica can always
// read forward; once the lease advances and releases, the next checkpoint
// prunes normally.
func TestWALLeasePreservesLaggingFeedTail(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := openDurable(t, fs, durTestConfig())
	lease := s.AcquireWALLease(0)
	ingestSeq(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// The whole log from position 0 must still be replayable.
	sr, err := wal.Scan(fs, durDir, 0)
	if err != nil {
		t.Fatalf("Scan from leased floor: %v", err)
	}
	if len(sr.Records) != 3 {
		t.Fatalf("leased scan found %d records, want 3", len(sr.Records))
	}

	// Catch the replica up and release; the next checkpoint cycle prunes the
	// now-unleased history (down to the fallback checkpoint's tail).
	lease.Advance(s.ReplicationLSN())
	lease.Release()
	if _, err := s.Ingest([]adapter.RawFile{{Domain: "flights", Source: "airport-api", Name: "late", Format: "text",
		Content: []byte("The status of MU551 is Boarding.")}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	names, err := fs.ReadDir(durDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, n := range names {
		if n == "wal-0000000000000000.log" {
			t.Fatalf("pre-fallback segment survived after the lease was released: %v", names)
		}
	}
}

// digestBytes is the pre-streaming definition of a snapshot digest: FNV-64a
// over the whole encoded body.
func digestBytes(b []byte) uint64 {
	f := fnv.New64a()
	f.Write(b)
	return f.Sum64()
}

// TestStreamedDigestEqualsDigestOfEncode pins the two whole-snapshot encodes
// to the one-buffer reference: Digest streams the body through the hash in
// pieces, Encode sizes its buffer with a counting pass, and both must stand
// for exactly the bytes a plain buffered encoder produces — on an empty
// engine, after a single chunk, and on a store whose body spans many encoder
// buffers.
func TestStreamedDigestEqualsDigestOfEncode(t *testing.T) {
	s := NewSystem(durTestConfig())
	rng := rand.New(rand.NewSource(4))
	for step := 0; step <= 96; step++ {
		h := s.ServingHandle()
		body := h.Encode()
		var ref wal.Encoder
		encodeSnapshot(&ref, s.snap.Load())
		if !bytes.Equal(body, ref.Bytes()) {
			t.Fatalf("step %d: Encode differs from the buffered reference encoding", step)
		}
		// Sized by the counting pass, not grown by doubling: the only slack
		// is the allocator rounding up to a size class or a page.
		if slack := cap(body) - len(body); slack > max(len(body)/8, 8<<10) {
			t.Fatalf("step %d: Encode holds a %d-byte body in a %d-byte buffer", step, len(body), cap(body))
		}
		if got, want := h.Digest(), digestBytes(body); got != want {
			t.Fatalf("step %d: streamed digest %016x, digest of Encode %016x", step, got, want)
		}
		if step == 0 && s.Index().Len() != 0 {
			t.Fatal("first step must see the empty engine")
		}
		batch := ingestBatch(rng.Intn(1000)) // one chunk per batch
		if step > 0 {
			for i := rng.Intn(6); i > 0; i-- {
				batch = append(batch, ingestBatch(rng.Intn(1000))...)
			}
		}
		if _, err := s.Ingest(batch); err != nil {
			t.Fatalf("step %d: ingest: %v", step, err)
		}
	}
	if n := len(s.ServingHandle().Encode()); n < 4*(32<<10) {
		t.Fatalf("final body is %d bytes; it must span several stream buffers", n)
	}
}

// TestDerivedStateMatchesLive: what a load derives instead of reading — each
// vector re-embedded from its chunk's text, the line graph built from the
// decoded graph — is the state the primary serves after a history of
// commits that grow the same homologous groups commit after commit. A replica seeded as a clone of the primary's snapshot, one seeded
// from its checkpoint body, a replica that applied every record from the
// start, and a crash-recovered system (a checkpoint mid-history, the rest of
// the log replayed) each hold the primary's posting lists and line graph, and
// its checkpoint body.
func TestDerivedStateMatchesLive(t *testing.T) {
	fsys := wal.NewMemFS()
	primary, _ := openDurable(t, fsys, durTestConfig())
	lease := primary.AcquireWALLease(0)
	defer lease.Release()
	follower := NewSystem(primary.Config())
	tail, err := primary.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range seqBatches() {
		if _, err := primary.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ { // Item k%5: every group grows twice
		if _, err := primary.Ingest(ingestBatch(k)); err != nil {
			t.Fatalf("ingest delta %d: %v", k, err)
		}
	}
	grown := false
	for _, members := range walkKeys(primary.Graph()).nodes {
		grown = grown || len(members) >= 3
	}
	if !grown {
		t.Fatalf("line graph %+v: the history must grow homologous groups past two members", primary.SG().ComputeStats())
	}
	catchUp(t, primary, follower, tail)
	seeded, _ := seededReplica(t, primary)
	decoded := NewSystem(primary.Config())
	if err := decoded.SeedReplica(primary.ServingHandle().Encode(), primary.ReplicationLSN()); err != nil {
		t.Fatal(err)
	}
	recovered, info := openDurable(t, fsys.Crash(nil), durTestConfig())
	if info.CheckpointLSN != 3 || info.RecordsReplayed != 10 {
		t.Fatalf("recovery %+v, want the checkpoint at LSN 3 and 10 replayed records", *info)
	}
	want := snapBytes(primary)
	for name, s := range map[string]*System{"seeded replica": seeded, "body-seeded replica": decoded, "log-applying replica": follower, "crash-recovered": recovered} {
		t.Run(name, func(t *testing.T) {
			requireDerivedEqual(t, s, primary)
			if !bytes.Equal(snapBytes(s), want) {
				t.Fatal("checkpoint body differs from the primary's")
			}
		})
	}
}

// TestReplicaApplyTailMatchesOneByOne: a replica that catches up in runs
// (ReplicaApplyTail: one clone and one publish per run)
// stops at every verification point and holds, at each position it publishes,
// exactly the state — body, vectors and line graph — of a replica that
// applied the same records one at a time.
func TestReplicaApplyTailMatchesOneByOne(t *testing.T) {
	primary, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	lease := primary.AcquireWALLease(0)
	defer lease.Release()
	for k := 0; k < 2*digestEvery+5; k++ {
		if _, err := primary.Ingest(ingestBatch(k)); err != nil {
			t.Fatalf("ingest %d: %v", k, err)
		}
	}
	committed := primary.ReplicationLSN()
	single, run := NewSystem(primary.Config()), NewSystem(primary.Config())
	singleTail, err := primary.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	runTail, err := primary.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	for pos := uint64(0); pos < committed; {
		n, err := run.ReplicaApplyTail(runTail, committed)
		if err != nil {
			t.Fatalf("ReplicaApplyTail at %d: %v", pos, err)
		}
		want := min(committed, (pos/digestEvery+1)*digestEvery)
		if pos+uint64(n) != want || run.ReplicationLSN() != want {
			t.Fatalf("run from %d applied %d records to position %d, want position %d", pos, n, run.ReplicationLSN(), want)
		}
		for single.ReplicationLSN() < want {
			payload, _, err := singleTail.Next(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.ReplicaApply(payload); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(snapBytes(run), snapBytes(single)) {
			t.Fatalf("position %d: the run-applying replica differs from the one-at-a-time one", want)
		}
		pos = want
	}
	if n, err := run.ReplicaApplyTail(runTail, committed); n != 0 || err != nil {
		t.Fatalf("a caught-up replica applied %d records (%v)", n, err)
	}
	requireDerivedEqual(t, run, primary)
}
