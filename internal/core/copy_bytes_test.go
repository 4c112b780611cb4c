package core

import (
	"runtime"
	"testing"
)

// liveHeap returns the bytes of heap objects still reachable after two
// collections (the second frees what sync.Pool victim caches held past the
// first) and the bytes allocated since the process started.
func liveHeap() (live, allocated int64) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc), int64(m.TotalAlloc)
}

// seedBytes seeds a fresh replica from a checkpoint body and returns the bytes
// the seed allocated and the heap the replica retains once collected: the
// size of one engine copy — graph, line graph and retrieval store — without
// the decoder's intern table and embedding slabs, which are garbage by then.
// ref is passed on to SeedReplica and kept live through both counts, so what
// the replica shares with it is not counted as retained.
func seedBytes(tb testing.TB, body []byte, ref ...SnapshotHandle) (allocated, retained int64) {
	tb.Helper()
	live0, alloc0 := liveHeap()
	r := NewSystem(durTestConfig())
	if err := r.SeedReplica(body, 0, ref...); err != nil {
		tb.Fatal(err)
	}
	live1, alloc1 := liveHeap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(ref)
	runtime.KeepAlive(body) // live at the first count, so it must be at the second
	return alloc1 - alloc0, live1 - live0
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
	_, retained := seedBytes(t, body)
	got := float64(retained) / float64(triples)
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
	_, retained := seedBytes(t, h.Encode(), h)
	got := float64(retained) / float64(triples)
	runtime.KeepAlive(s) // the primary is live throughout, as beside a replica set
	t.Logf("%.0f B per triple over %d triples", got, triples)
	if got > ceiling {
		t.Fatalf("a replica beside its primary retains %.0f B per triple, ceiling %d", got, ceiling)
	}
}

// TestSeedReplicaAllocCeiling bounds what one seed beside its primary
// allocates against what the seeded replica retains, on the snapshot
// BenchmarkSeedReplica seeds from. Copying the primary's posting entries
// allocates about the lists it keeps; re-embedding every chunk allocated
// embedding slabs and list growth on top, 2.10 times the retained heap. It
// reads 1.16 (x86-64, Go 1.24).
func TestSeedReplicaAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	const ceiling = 1.3 // bytes allocated per byte retained
	h := benchSnapshot(t)
	allocated, retained := seedBytes(t, h.Encode(), h)
	got := float64(allocated) / float64(retained)
	t.Logf("%d B allocated, %d B retained: %.2f", allocated, retained, got)
	if got > ceiling {
		t.Fatalf("a seed beside its primary allocates %.2f times what it retains, ceiling %.2f", got, ceiling)
	}
}
