package core

import (
	"runtime"
	"testing"
)

// liveHeap returns the bytes of heap objects still reachable after two
// collections: the second frees what sync.Pool victim caches held past the
// first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// seededReplicaBytes seeds a fresh replica from a checkpoint body and returns
// the heap it retains once collected: the size of one engine copy — graph,
// line graph and retrieval store — without the decoder's intern table and
// embedding slabs, which are garbage by then. ref is passed on to
// SeedReplica; what the replica shares with it is not counted, as long as
// the caller keeps ref's system live.
func seededReplicaBytes(tb testing.TB, body []byte, ref ...SnapshotHandle) int64 {
	tb.Helper()
	before := liveHeap()
	r := NewSystem(durTestConfig())
	if err := r.SeedReplica(body, 0, ref...); err != nil {
		tb.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(body) // live at before, so it must be at after
	return after - before
}

// TestEngineCopyBytesCeiling bounds the heap one engine copy retains per
// triple: a replica seeded from the checkpoint body of the datasets corpus
// the end-to-end benchmark bulk-loads (bulkFiles: 59,645 triples, 5,633
// homologous nodes), after a collection. It reads 304 B (x86-64, Go 1.24).
func TestEngineCopyBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	const ceiling = 315 // bytes per triple
	s := NewSystem(durTestConfig())
	if _, err := s.Ingest(bulkFiles(t)); err != nil {
		t.Fatal(err)
	}
	body := s.ServingHandle().Encode()
	triples := s.Graph().NumTriples()
	got := float64(seededReplicaBytes(t, body)) / float64(triples)
	t.Logf("%.0f B per triple over %d triples", got, triples)
	if got > ceiling {
		t.Fatalf("one engine copy retains %.0f B per triple, ceiling %d", got, ceiling)
	}
}

// TestEngineCopyBytesBesidePrimaryCeiling bounds the heap a replica seeded
// beside its live primary retains per triple: TestEngineCopyBytesCeiling's
// corpus and body, decoded against the primary's handle as a ReplicaSet
// seeds it, so the replica shares the primary's entities, triples and
// strings and holds only its own columns, posting lists, lookups and chunk
// slice. It reads 138 B (x86-64, Go 1.24); recovery, which has no primary,
// still pays TestEngineCopyBytesCeiling's figure.
func TestEngineCopyBytesBesidePrimaryCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	const ceiling = 150 // bytes per triple
	s := NewSystem(durTestConfig())
	if _, err := s.Ingest(bulkFiles(t)); err != nil {
		t.Fatal(err)
	}
	h := s.ServingHandle()
	triples := s.Graph().NumTriples()
	got := float64(seededReplicaBytes(t, h.Encode(), h)) / float64(triples)
	runtime.KeepAlive(s) // the primary is live throughout, as beside a replica set
	t.Logf("%.0f B per triple over %d triples", got, triples)
	if got > ceiling {
		t.Fatalf("a replica beside its primary retains %.0f B per triple, ceiling %d", got, ceiling)
	}
}
