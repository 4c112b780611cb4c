package core

import (
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/retrieval"
)

var digestSink uint64

// benchSnapshot is the snapshot the snapshot benchmarks share: a few thousand
// entities and chunks, ingested as one batch.
func benchSnapshot(tb testing.TB) SnapshotHandle {
	tb.Helper()
	s := NewSystem(durTestConfig())
	var files []adapter.RawFile
	for k := 0; k < 1500; k++ {
		files = append(files, disjointBatch(k)...)
		files = append(files, ingestBatch(k)[1]) // one text chunk each
	}
	if _, err := s.Ingest(files); err != nil {
		tb.Fatal(err)
	}
	return s.ServingHandle()
}

// BenchmarkSnapshotDigest measures one anti-entropy digest of the shared
// snapshot. The body is streamed into the hash, so B/op should stay a small
// fraction of the body's size (reported as body-bytes) however large the
// snapshot grows. Run with -benchmem, or via `make bench-micro`.
func BenchmarkSnapshotDigest(b *testing.B) {
	h := benchSnapshot(b)
	size := len(h.Encode())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = h.Digest()
	}
	b.ReportMetric(float64(size), "body-bytes") // after ResetTimer, which drops reported metrics
}

// BenchmarkSeedReplica measures one replica seeded from the shared
// snapshot's checkpoint body: decoding the graph and the store's chunks, the
// store's posting lists and the line-graph build. Nearly everything it
// allocates is the replica's state, so B/op and allocs/op are the size of one
// engine copy plus the decoder's transient tables; live-MB is the heap the
// seeded replica retains after a collection (seedBytes), the part that stays,
// and embeds/op the chunks it embedded (retrieval.EmbedCalls). standalone
// decodes without a reference, as recovery does, and re-embeds every chunk;
// beside-primary against the snapshot the body was encoded from, as a
// ReplicaSet seeds, so it shares that snapshot's entities, triples and
// strings, copies its posting entries, embeds nothing, and allocates little
// more than it retains (TestSeedReplicaAllocCeiling). Run with -benchmem, or
// via `make bench-micro`.
func BenchmarkSeedReplica(b *testing.B) {
	h := benchSnapshot(b)
	body := h.Encode()
	cfg := durTestConfig()
	for _, bc := range []struct {
		name string
		ref  []SnapshotHandle
	}{{"standalone", nil}, {"beside-primary", []SnapshotHandle{h}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			embeds := retrieval.EmbedCalls()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := NewSystem(cfg)
				b.StartTimer()
				if err := r.SeedReplica(body, 0, bc.ref...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(retrieval.EmbedCalls()-embeds)/float64(b.N), "embeds/op")
			b.ReportMetric(float64(len(body)), "body-bytes")
			_, retained := seedBytes(b, body, bc.ref...)
			b.ReportMetric(float64(retained)/1e6, "live-MB")
		})
	}
}
