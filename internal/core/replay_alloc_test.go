package core

import (
	"fmt"
	"runtime"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/wal"
)

// streamDelta is the k-th small delta of the end-to-end benchmark's
// ingest-stream shape: the datasets presets regenerated at ten entities under
// another seed, whose entity names collide with the bulk corpus's on purpose,
// and whose files are renamed so they add to it.
func streamDelta(k int) []adapter.RawFile {
	var files []adapter.RawFile
	for _, spec := range datasets.AllPresets(uint64(1000 + k)) {
		spec.Entities, spec.Queries = 10, 1
		for _, f := range datasets.MustGenerate(spec).Files {
			f.Name = fmt.Sprintf("%s-delta-%d", f.Name, k)
			files = append(files, f)
		}
	}
	return files
}

// mallocs returns the heap objects the process allocated while fn ran.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestReplayAllocCeiling bounds the objects the one replay step allocates per
// replayed triple, where the write path pays it: the primary's commit of a
// prepared delta over TestEngineCopyBytesCeiling's corpus (stage 1 runs
// outside the count), and a replica beside it applying the logged record, its
// fork paid by earlier records. Both counts take in the whole commit — clone,
// replay, log append or chunk re-embedding, publish — so their sum over the
// triples replayed is what one triple costs the two engine copies. A replayed
// triple that is a heap object again, a looked-up field decoded into a string
// of its own, or a kept value that is a heap object of its own instead of a
// substring of its engine's arena (wal.Arena) fails it: it reads 1.12 objects
// per triple (x86-64, Go 1.24), 1.19 while replay packed each part's chunk
// strings into one string of their own, 2.40 while the decoder kept a string
// per new object, source and chunk value, and 4.5 while each triple was a heap object
// and every field a string.
func TestReplayAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	const (
		ceiling = 1.5 // objects per replayed triple, primary and replica together
		warm    = 4   // deltas whose applies fork the replica off the primary's lineage
		deltas  = 12
	)
	// Background checkpoints are off: nothing allocates beside the
	// measured steps but the steps.
	cfg := durTestConfig()
	cfg.CheckpointRecords, cfg.CheckpointBytes = 1<<30, 1<<40
	primary, _ := openDurable(t, wal.NewMemFS(), cfg)
	if _, err := primary.Ingest(bulkFiles(t)); err != nil {
		t.Fatal(err)
	}
	replica, tail := seededReplica(t, primary)
	var objects, triples uint64
	for k := 0; k < warm+deltas; k++ {
		p := &prepared{}
		primary.admit(p)
		primary.prepare(p, streamDelta(k))
		before := primary.Graph().TripleSlots()
		commit := mallocs(func() {
			if _, err := primary.commitJoin(p); err != nil {
				t.Fatal(err)
			}
		})
		recs := logRecords(t, primary, tail.LSN(), primary.ReplicationLSN())
		if len(recs) != 1 {
			t.Fatalf("delta %d logged %d records", k, len(recs))
		}
		apply := mallocs(func() {
			if err := replica.ReplicaApply(recs[0]); err != nil {
				t.Fatal(err)
			}
		})
		if _, _, err := tail.Next(primary.ReplicationLSN()); err != nil {
			t.Fatal(err)
		}
		if k >= warm {
			objects += commit + apply
			triples += uint64(primary.Graph().TripleSlots() - before)
		}
	}
	if replica.SnapshotDigest() != primary.SnapshotDigest() {
		t.Fatal("replica diverged from the primary")
	}
	got := float64(objects) / float64(triples)
	t.Logf("%.2f objects per replayed triple over %d triples", got, triples)
	if got > ceiling {
		t.Fatalf("the replay step allocates %.2f objects per replayed triple on the primary and a replica, ceiling %.1f", got, ceiling)
	}
}
