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
// embedding slabs, which are garbage by then.
func seededReplicaBytes(tb testing.TB, body []byte) int64 {
	tb.Helper()
	before := liveHeap()
	r := NewSystem(durTestConfig())
	if err := r.SeedReplica(body, 0); err != nil {
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
