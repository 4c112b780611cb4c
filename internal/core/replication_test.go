package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/wal"
)

// recSink collects shipped records — the test double for the cluster feed.
type recSink struct {
	mu   sync.Mutex
	lsns []uint64
	recs [][]byte
	last SnapshotHandle
}

func (r *recSink) ShipRecord(lsn uint64, payload []byte, after SnapshotHandle) {
	r.mu.Lock()
	r.lsns = append(r.lsns, lsn)
	r.recs = append(r.recs, payload)
	r.last = after
	r.mu.Unlock()
}

// TestReplicationShipByteIdentical pins the replication invariant: a replica
// seeded from the attach-time handle and fed every shipped record through
// ReplicaApply holds a snapshot byte-identical to the primary's after each
// position, with matching positions and digests.
func TestReplicationShipByteIdentical(t *testing.T) {
	primary := NewSystem(durTestConfig())
	sink := &recSink{}
	handle, lsn, err := primary.AttachReplication(sink)
	if err != nil {
		t.Fatalf("AttachReplication: %v", err)
	}
	if lsn != 0 {
		t.Fatalf("attach position = %d, want 0", lsn)
	}

	replica := NewSystem(primary.Config())
	if err := replica.SeedReplica(handle.Encode(), lsn); err != nil {
		t.Fatalf("SeedReplica: %v", err)
	}

	var wantStates [][]byte
	for i, b := range seqBatches() {
		if _, err := primary.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
		wantStates = append(wantStates, snapBytes(primary))
	}
	if len(sink.recs) != 3 {
		t.Fatalf("shipped %d records, want 3", len(sink.recs))
	}
	for i, rec := range sink.recs {
		if sink.lsns[i] != uint64(i) {
			t.Fatalf("record %d shipped with LSN %d", i, sink.lsns[i])
		}
		if err := replica.ReplicaApply(rec); err != nil {
			t.Fatalf("ReplicaApply record %d: %v", i, err)
		}
		if !bytes.Equal(snapBytes(replica), wantStates[i]) {
			t.Fatalf("replica state diverged after record %d", i)
		}
	}
	if got, want := replica.ReplicationLSN(), primary.ReplicationLSN(); got != want {
		t.Fatalf("replica position %d, primary %d", got, want)
	}
	if replica.SnapshotDigest() != primary.SnapshotDigest() {
		t.Fatal("anti-entropy digests differ on byte-identical snapshots")
	}
	if sink.last.Digest() != primary.SnapshotDigest() {
		t.Fatal("shipped handle digest differs from the primary's serving digest")
	}
}

// TestReplicationAttachMidStreamMissesNothing pins the atomic capture: a sink
// attached after commits have already happened sees a (handle, position) pair
// with no gap before the first shipped record.
func TestReplicationAttachMidStreamMissesNothing(t *testing.T) {
	primary := NewSystem(durTestConfig())
	batches := seqBatches()
	if _, err := primary.Ingest(batches[0]); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	sink := &recSink{}
	handle, lsn, err := primary.AttachReplication(sink)
	if err != nil {
		t.Fatalf("AttachReplication: %v", err)
	}
	if lsn != 1 {
		t.Fatalf("attach position = %d, want 1", lsn)
	}
	replica := NewSystem(primary.Config())
	if err := replica.SeedReplica(handle.Encode(), lsn); err != nil {
		t.Fatalf("SeedReplica: %v", err)
	}

	for _, b := range batches[1:] {
		if _, err := primary.Ingest(b); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	if len(sink.recs) != 2 || sink.lsns[0] != 1 {
		t.Fatalf("shipped %d records from LSN %v, want 2 from 1", len(sink.recs), sink.lsns)
	}
	for _, rec := range sink.recs {
		if err := replica.ReplicaApply(rec); err != nil {
			t.Fatalf("ReplicaApply: %v", err)
		}
	}
	if !bytes.Equal(snapBytes(replica), snapBytes(primary)) {
		t.Fatal("mid-stream-attached replica diverged from primary")
	}
	primary.DetachReplication()
	if _, _, err := primary.AttachReplication(sink); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
}

// TestReplicationDurablePrimaryShipsWALPositions pins that on a durable
// primary the shipped positions are exactly the WAL LSNs, so feed leases and
// segment pruning speak the same coordinate system.
func TestReplicationDurablePrimaryShipsWALPositions(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := openDurable(t, fs, durTestConfig())
	sink := &recSink{}
	if _, _, err := s.AttachReplication(sink); err != nil {
		t.Fatalf("AttachReplication: %v", err)
	}
	ingestSeq(t, s)
	st := s.DurabilityStatus()
	if len(sink.lsns) != 3 || sink.lsns[2] != st.NextLSN-1 {
		t.Fatalf("shipped LSNs %v, WAL next LSN %d", sink.lsns, st.NextLSN)
	}

	// The shipped payloads are the WAL records themselves: a fresh in-memory
	// replica replaying them matches the durable primary byte for byte.
	replica := NewSystem(s.Config())
	for _, rec := range sink.recs {
		if err := replica.ReplicaApply(rec); err != nil {
			t.Fatalf("ReplicaApply: %v", err)
		}
	}
	if !bytes.Equal(snapBytes(replica), snapBytes(s)) {
		t.Fatal("replica of durable primary diverged")
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

// TestWALLeasePreservesLaggingFeedTail is the satellite retention-lease case:
// while a replication feed still holds a lease at an old position, checkpoint
// pruning keeps every segment from that position on, so the lagging replica
// can always replay forward; once the lease advances and releases, the next
// checkpoint prunes normally.
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

	// Catch the feed up and release; the next checkpoint cycle prunes the
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
	for step := 0; step <= 48; step++ {
		h := s.ServingHandle()
		body := h.Encode()
		if !bytes.Equal(body, snapBytes(s)) {
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
