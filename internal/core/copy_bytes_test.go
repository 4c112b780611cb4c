package core

import (
	"runtime"
	"testing"

	"multirag/internal/wal"
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

// seedBytes seeds a fresh replica from a checkpoint body, as recovery
// decodes one, and returns the bytes the seed allocated and the heap the
// replica retains once collected: the size of one engine copy — graph, line
// graph and retrieval store — without the decoder's intern table and
// embedding slabs, which are garbage by then.
func seedBytes(tb testing.TB, body []byte) (allocated, retained int64) {
	tb.Helper()
	live0, alloc0 := liveHeap()
	r := NewSystem(durTestConfig())
	if err := r.SeedReplica(body, 0); err != nil {
		tb.Fatal(err)
	}
	live1, alloc1 := liveHeap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(body) // live at the first count, so it must be at the second
	return alloc1 - alloc0, live1 - live0
}

// cloneSeedBytes seeds a fresh replica beside primary as a ReplicaSet does, a
// clone of its published snapshot, and returns the bytes the seed allocated
// and the heap the replica retains once collected, the primary live
// throughout: what a replica costs while it shares everything with its
// primary.
func cloneSeedBytes(tb testing.TB, primary *System) (allocated, retained int64) {
	tb.Helper()
	live0, alloc0 := liveHeap()
	h, lsn, lease, err := primary.ReplicationSeed()
	if err != nil {
		tb.Fatal(err)
	}
	r := NewSystem(primary.Config())
	r.SeedReplicaClone(h, lsn)
	live1, alloc1 := liveHeap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(primary)
	lease.Release()
	return alloc1 - alloc0, live1 - live0
}

// bulkPrimary is a durable system holding the datasets corpus the end-to-end
// benchmark bulk-loads (bulkFiles: 59,645 triples, 5,633 homologous nodes).
func bulkPrimary(t *testing.T) *System {
	t.Helper()
	s, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	if _, err := s.Ingest(bulkFiles(t)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEngineCopyBytesCeiling bounds the heap one engine copy retains per
// triple: a replica seeded from the checkpoint body of bulkPrimary's corpus,
// after a collection — what recovery holds, and a replica seeded away from
// its primary. It reads 295 B (x86-64, Go 1.24); 304 while the triple column
// held a pointer to a heap object per triple.
func TestEngineCopyBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	const ceiling = 305 // bytes per triple
	s := bulkPrimary(t)
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
// beside its live primary retains per triple: a clone of the primary's
// snapshot on TestEngineCopyBytesCeiling's corpus, as a ReplicaSet seeds it.
// The replica shares every column page, posting list, chunk and string with
// the primary and holds the posting columns' page tables, lookup overlays
// and its own line-graph view. It reads 1.1 B (x86-64, Go 1.24); 6.8 while
// the key index was an overlay map the seed's first clone flattened, ~144
// means the seed decodes the primary's checkpoint body again, ~304 that it
// shares nothing.
func TestEngineCopyBytesBesidePrimaryCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	const ceiling = 4 // bytes per triple
	s := bulkPrimary(t)
	triples := s.Graph().NumTriples()
	_, retained := cloneSeedBytes(t, s)
	got := float64(retained) / float64(triples)
	t.Logf("%.1f B per triple over %d triples", got, triples)
	if got > ceiling {
		t.Fatalf("a replica beside its primary retains %.1f B per triple, ceiling %d", got, ceiling)
	}
}

// TestSeedReplicaAllocCeiling bounds the bytes one seed beside its primary
// allocates per triple, on TestEngineCopyBytesCeiling's corpus. A clone
// allocates page tables and its line-graph view, little more than it
// retains; decoding the primary's checkpoint body allocated about 1.2 times
// the 144 B per triple it retained. It reads 1.2 B (x86-64, Go 1.24); 7.0
// while the seed's first clone flattened the key index's overlay map.
func TestSeedReplicaAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	const ceiling = 4 // bytes per triple
	s := bulkPrimary(t)
	triples := s.Graph().NumTriples()
	allocated, _ := cloneSeedBytes(t, s)
	got := float64(allocated) / float64(triples)
	t.Logf("%.1f B per triple over %d triples", got, triples)
	if got > ceiling {
		t.Fatalf("a seed beside its primary allocates %.1f B per triple, ceiling %d", got, ceiling)
	}
}

// TestCheckpointDecodeAllocCeiling bounds the heap objects decoding a
// checkpoint body allocates per decoded row — entity, triple slot and chunk —
// through SeedReplica, as recovery and a seed away from the primary decode
// one, on TestEngineCopyBytesCeiling's corpus. The count takes in the whole
// seed: graph, store, re-embedding and the line-graph view. A kept string
// that is a heap object of its own again (an entity's ID or name, a triple's
// object, source or chunk, a chunk's ID or text) instead of a substring of
// the decode's arena (wal.Arena) fails it: it reads 0.46 objects per row
// (x86-64, Go 1.24), 1.44 while each kept string was a heap object.
func TestCheckpointDecodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	const ceiling = 0.55 // objects per decoded entity, triple slot and chunk
	s := bulkPrimary(t)
	body := s.ServingHandle().Encode()
	g := s.Graph()
	rows := g.NumEntities() + int(g.TripleSlots()) + s.Index().Len()
	r := NewSystem(durTestConfig())
	objects := mallocs(func() {
		if err := r.SeedReplica(body, 0); err != nil {
			t.Fatal(err)
		}
	})
	if r.SnapshotDigest() != s.SnapshotDigest() {
		t.Fatal("the seeded replica differs from the primary")
	}
	got := float64(objects) / float64(rows)
	t.Logf("%.2f objects per decoded row over %d rows (%d objects)", got, rows, objects)
	if got > ceiling {
		t.Fatalf("decoding a checkpoint allocates %.2f objects per entity, triple slot and chunk, ceiling %.2f", got, ceiling)
	}
}
