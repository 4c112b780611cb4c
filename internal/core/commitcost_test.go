package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/llm"
	"multirag/internal/wal"
)

// DESIGN.md §4 says a commit costs O(delta), not O(corpus). These tests hold
// it to that from the outside, in bytes: the same small ingest into a system
// holding one corpus and into one holding four times as much must allocate
// about the same, on the primary and on a replica applying the logged
// record. A replica seeded beside its primary is a clone that forks on its
// first applies, copying each list and page the first time it writes one
// (DESIGN.md §11); that one-time cost is bounded on its own, and the
// per-record cost is measured once it is paid.

// anchorFiles states, from two sources, the movie attributes of 36 entities
// that exist whatever the corpus size, so a delta about them grows existing
// homologous groups and appends to existing posting lists.
func anchorFiles() []adapter.RawFile {
	var b strings.Builder
	for i := 0; i < 36; i++ {
		fmt.Fprintf(&b, "Anchor %d|director|Person %d\nAnchor %d|year|%d\nAnchor %d|genre|genre%d\n", i, i, i, 1950+i, i, i%5)
	}
	return []adapter.RawFile{
		{Domain: "movies", Source: "anchor-a", Name: "facts", Format: "kg", Content: []byte(b.String())},
		{Domain: "movies", Source: "anchor-b", Name: "facts", Format: "kg", Content: []byte(b.String())},
	}
}

// deltaFiles is the k-th steady-state ingest: four small files from four new
// sources, each restating a few anchors' attributes.
func deltaFiles(k int) []adapter.RawFile {
	files := make([]adapter.RawFile, 4)
	for j := range files {
		var b strings.Builder
		for l := 0; l < 3; l++ {
			a := (4*k + 3*j + l) % 36
			fmt.Fprintf(&b, "Anchor %d|director|Person %d\nAnchor %d|year|%d\n", a, a+k%2, a, 1950+a)
		}
		files[j] = adapter.RawFile{Domain: "movies", Source: fmt.Sprintf("delta-%d-%d", k, j), Name: "facts", Format: "kg", Content: []byte(b.String())}
	}
	return files
}

// systemHolding is a durable system on a MemFS holding the corpus, checkpointed
// so the bulk load's segment is behind it. Background checkpoints are off:
// nothing allocates between the measured steps but the steps.
func systemHolding(t *testing.T, entities int) *System {
	t.Helper()
	spec := datasets.Movies(7)
	spec.Entities = entities
	spec.Queries = 1
	s, _ := openDurable(t, wal.NewMemFS(), Config{Workers: 1, LLM: llm.Config{Seed: 1}, CheckpointRecords: 1 << 30, CheckpointBytes: 1 << 40})
	if _, err := s.Ingest(append(datasets.MustGenerate(spec).Files, anchorFiles()...)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return s
}

// stepAllocs runs each step once and returns the bytes the process allocated
// around each, sorted.
func stepAllocs(steps int, step func(k int)) []uint64 {
	bytes := make([]uint64, steps)
	var before, after runtime.MemStats
	for k := range bytes {
		runtime.ReadMemStats(&before)
		step(k)
		runtime.ReadMemStats(&after)
		bytes[k] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
	return bytes
}

// TestCommitBytesDoNotDependOnCorpusSize reads about 0.97x on the primary's
// ingest and 1.08x on a replica's apply (x86-64, Go 1.24), with or without
// -race; the apply read 1.44x while every clone copied each column's page
// table and the key index's overlay tail.
func TestCommitBytesDoNotDependOnCorpusSize(t *testing.T) {
	const (
		entities = 500
		commits  = 9
		factor   = 1.25 // 4x corpus over 1x, per commit
	)
	type cost struct{ ingest, apply uint64 }
	measure := func(entities int) cost {
		primary := systemHolding(t, entities)
		var c cost
		ingests := stepAllocs(commits, func(k int) {
			if _, err := primary.Ingest(deltaFiles(k)); err != nil {
				t.Fatal(err)
			}
		})
		c.ingest = ingests[commits/2]
		_, copyBytes := seedBytes(t, primary.ServingHandle().Encode())
		replica, tail := seededReplica(t, primary)
		for k := commits; k < 3*commits; k++ {
			if _, err := primary.Ingest(deltaFiles(k)); err != nil {
				t.Fatal(err)
			}
		}
		recs := logRecords(t, primary, tail.LSN(), primary.ReplicationLSN())
		apply := func(k int) {
			if err := replica.ReplicaApply(recs[k]); err != nil {
				t.Fatal(err)
			}
		}
		// The first commits' records touch every anchor, so the replica has
		// forked each list the measured records write to.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < commits; k++ {
			apply(k)
		}
		runtime.ReadMemStats(&after)
		if fork := after.TotalAlloc - before.TotalAlloc; fork > uint64(copyBytes) {
			t.Errorf("%d entities: a clone's first %d applies allocate %d B, more than the %d B one engine copy retains",
				entities, commits, fork, copyBytes)
		}
		// An apply is taken as the mean over the steps, not the median: the
		// replica keeps the strings it decodes in its arena (wal.Arena),
		// whose next block is paid on one apply in four or five, and that
		// cost, which the median would drop, is part of what a commit costs.
		var sum uint64
		for _, b := range stepAllocs(commits, func(k int) { apply(commits + k) }) {
			sum += b
		}
		c.apply = sum / commits
		if replica.SnapshotDigest() != primary.SnapshotDigest() {
			t.Fatal("replica diverged from the primary")
		}
		t.Logf("%d entities, %d triples: ingest %d B, replica apply %d B per commit, its first %d %d B",
			entities, primary.Graph().NumTriples(), c.ingest, c.apply, commits, after.TotalAlloc-before.TotalAlloc)
		return c
	}
	small, large := measure(entities), measure(4*entities)
	if float64(large.ingest) > factor*float64(small.ingest) {
		t.Errorf("Ingest of one delta allocates %d B on the 4x corpus, %d B on the 1x corpus", large.ingest, small.ingest)
	}
	if float64(large.apply) > factor*float64(small.apply) {
		t.Errorf("ReplicaApply of one record allocates %d B on the 4x corpus, %d B on the 1x corpus", large.apply, small.apply)
	}
}

// TestDurableEncoderLetsGoOfBulkRecord: the group-record encoder a durable
// system reuses across commits does not keep the buffer that held a bulk
// load's multi-megabyte record once the record is logged.
func TestDurableEncoderLetsGoOfBulkRecord(t *testing.T) {
	spec := datasets.Movies(7)
	spec.Entities = 1800 // an 8.9 MB bulk record
	spec.Queries = 1
	s, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	lease := s.AcquireWALLease(0) // the record outgrows the background checkpoint's threshold
	defer lease.Release()
	if _, err := s.Ingest(datasets.MustGenerate(spec).Files); err != nil {
		t.Fatal(err)
	}
	// wal keeps no scratch buffer past a constant it holds at or under
	// DefaultCheckpointBytes; the record must be over that to show anything.
	if size := len(logRecords(t, s, 0, 1)[0]); size <= DefaultCheckpointBytes {
		t.Fatalf("bulk record is only %d B, the test needs one over %d", size, DefaultCheckpointBytes)
	}
	s.mu.Lock() // the background checkpointer shares the guard
	kept := cap(s.dur.enc.Bytes())
	s.mu.Unlock()
	if kept > DefaultCheckpointBytes {
		t.Fatalf("durable encoder still holds %d B after the bulk record", kept)
	}
	if _, err := s.Ingest(ingestBatch(0)); err != nil {
		t.Fatal(err)
	}
}
