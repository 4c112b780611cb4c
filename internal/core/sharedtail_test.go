package core

import (
	"testing"

	"multirag/internal/fault"
	"multirag/internal/wal"
)

// The retrieval store appends a commit's rows in place behind the published
// snapshot (retrieval.Index.claim). A commit that claimed that tail and was
// then thrown away — WAL append failed, or a group-mate failed mid-replay and
// the clone was rebuilt — leaves its rows in the shared spare capacity, and
// the next clone of the same snapshot must not be affected by them. These
// tests pin that from the outside: after a failed group, the next
// successful commit digests exactly like a reference engine that never saw
// the failure, on the primary and on a replica reading the primary's log, and
// the snapshot that was serving during the failure still digests as it did.

// referenceDigest ingests the given batches, one commit each, into a fresh
// in-memory engine and returns its digest.
func referenceDigest(t *testing.T, cfg Config, ks ...int) uint64 {
	t.Helper()
	ref := NewSystem(cfg)
	for _, k := range ks {
		if _, err := ref.Ingest(ingestBatch(k)); err != nil {
			t.Fatalf("reference ingest %d: %v", k, err)
		}
	}
	return ref.SnapshotDigest()
}

func TestCommitAfterFailedWALAppendMatchesReference(t *testing.T) {
	defer fault.Reset()
	cfg := durTestConfig()
	primary, _ := openDurable(t, wal.NewMemFS(), cfg)
	replica, tail := seededReplica(t, primary)
	for k := 0; k < 4; k++ {
		if _, err := primary.Ingest(ingestBatch(k)); err != nil {
			t.Fatalf("ingest %d: %v", k, err)
		}
	}
	catchUp(t, primary, replica, tail)
	serving := primary.ServingHandle()
	servingDigest := serving.Digest()

	// The group replays onto the commit clone (claiming the shared tail) and
	// only then fails its WAL append: nothing publishes, nothing is logged.
	fault.Enable(fault.PointWALAppend, fault.Fault{Kind: fault.KindError, MaxHits: 1})
	if _, err := primary.Ingest(ingestBatch(4)); err == nil {
		t.Fatal("ingest under a WAL append fault succeeded")
	}
	if got := primary.SnapshotDigest(); got != servingDigest {
		t.Fatal("failed group changed the serving snapshot")
	}
	// A replica that rejects a record mid-stream discards its clone too.
	if err := replica.ReplicaApply([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("ReplicaApply accepted a corrupt record")
	}

	survivors := []int{0, 1, 2, 3}
	for _, k := range []int{5, 6} {
		if _, err := primary.Ingest(ingestBatch(k)); err != nil {
			t.Fatalf("ingest %d after the failed group: %v", k, err)
		}
		catchUp(t, primary, replica, tail)
		survivors = append(survivors, k)
		want := referenceDigest(t, cfg, survivors...)
		if got := primary.SnapshotDigest(); got != want {
			t.Fatalf("after batch %d: primary digest %016x, reference %016x", k, got, want)
		}
		if got := replica.SnapshotDigest(); got != want {
			t.Fatalf("after batch %d: replica digest %016x, reference %016x", k, got, want)
		}
	}
	if got := serving.Digest(); got != servingDigest {
		t.Fatal("later commits changed a snapshot captured before the failed group")
	}
}

func TestCommitAfterMidGroupReplayFailureMatchesReference(t *testing.T) {
	cfg := durTestConfig()
	primary, _ := openDurable(t, wal.NewMemFS(), cfg)
	replica, tail := seededReplica(t, primary)
	for k := 0; k < 2; k++ {
		if _, err := primary.Ingest(ingestBatch(k)); err != nil {
			t.Fatalf("ingest %d: %v", k, err)
		}
	}
	serving := primary.ServingHandle()
	servingDigest := serving.Digest()

	// Batches 2, 3, 4 as one group; 3 fails after replaying, so the committer
	// throws the clone away — batch 2's rows already sit in the shared tail —
	// and re-replays 2, then 4, onto a second clone of the same snapshot.
	var group []*prepared
	for k := 2; k < 5; k++ {
		p := &prepared{}
		primary.admit(p)
		primary.prepare(p, ingestBatch(k))
		if p.err != nil {
			t.Fatal(p.err)
		}
		group = append(group, p)
	}
	poison(group[1])
	primary.commitGroup(group)
	primary.gc.nextCommit += 3 // direct commitGroup bypassed commitJoin's bookkeeping
	primary.gc.inflight -= 3
	if group[0].err != nil || group[1].err == nil || group[2].err != nil {
		t.Fatalf("group outcome: %v / %v / %v", group[0].err, group[1].err, group[2].err)
	}
	catchUp(t, primary, replica, tail)
	if got, want := primary.SnapshotDigest(), referenceDigest(t, cfg, 0, 1, 2, 4); got != want {
		t.Fatalf("rolled-back group: primary digest %016x, reference %016x", got, want)
	}

	if _, err := primary.Ingest(ingestBatch(5)); err != nil {
		t.Fatalf("ingest after the rolled-back group: %v", err)
	}
	catchUp(t, primary, replica, tail)
	want := referenceDigest(t, cfg, 0, 1, 2, 4, 5)
	if got := primary.SnapshotDigest(); got != want {
		t.Fatalf("next commit: primary digest %016x, reference %016x", got, want)
	}
	if got := replica.SnapshotDigest(); got != want {
		t.Fatalf("next commit: replica digest %016x, reference %016x", got, want)
	}
	if got := serving.Digest(); got != servingDigest {
		t.Fatal("the group's rollback changed a snapshot captured before it")
	}
}
