package core

import (
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

var digestSink uint64

// benchPrimary is the durable system the snapshot benchmarks share: a few
// thousand entities and chunks, ingested as one batch.
func benchPrimary(tb testing.TB) *System {
	tb.Helper()
	s, _, err := OpenFS(wal.NewMemFS(), durDir, durTestConfig())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	if _, err := s.Ingest(benchFiles(0, 1500)); err != nil {
		tb.Fatal(err)
	}
	return s
}

// benchFiles is batches [from, to) of benchPrimary's corpus: per batch two
// agreeing sources on a subject of its own and one text chunk.
func benchFiles(from, to int) []adapter.RawFile {
	var files []adapter.RawFile
	for k := from; k < to; k++ {
		files = append(files, disjointBatch(k)...)
		files = append(files, ingestBatch(k)[1])
	}
	return files
}

// BenchmarkSnapshotDigest measures one anti-entropy digest of the shared
// snapshot. The body is streamed into the hash, so B/op should stay a small
// fraction of the body's size (reported as body-bytes) however large the
// snapshot grows. Run with -benchmem, or via `make bench-micro`.
func BenchmarkSnapshotDigest(b *testing.B) {
	h := benchPrimary(b).ServingHandle()
	size := len(h.Encode())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = h.Digest()
	}
	b.ReportMetric(float64(size), "body-bytes") // after ResetTimer, which drops reported metrics
}

// BenchmarkSeedReplica measures one replica seeded from the shared primary,
// both ways a replica is seeded. standalone decodes the primary's checkpoint
// body (reported as body-bytes), as recovery and a seed away from the
// primary's memory do: the graph, the store's chunks, every chunk re-embedded
// into the posting lists and the line-graph build, so B/op and allocs/op are
// the size of one engine copy plus the decoder's transient tables.
// beside-primary takes a clone of the primary's published snapshot, as a
// ReplicaSet seeds: page tables, lookup overlays and the replica's line-graph
// view. live-MB is the heap the seeded replica retains after a collection
// (seedBytes, cloneSeedBytes), embeds/op the chunks it embedded
// (retrieval.EmbedCalls). first-apply is the clone's first ReplicaApply, of
// one record the primary committed after the seed: the replica loses the
// lineage claim there and forks, copying the chunk slice and every posting
// list, page and lookup entry the record writes — the cost the clone moves
// out of the seed. Run with -benchmem, or via `make bench-micro`.
func BenchmarkSeedReplica(b *testing.B) {
	primary := benchPrimary(b)
	body := primary.ServingHandle().Encode()
	cfg := durTestConfig()
	b.Run("standalone", func(b *testing.B) {
		b.ReportAllocs()
		embeds := retrieval.EmbedCalls()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := NewSystem(cfg)
			b.StartTimer()
			if err := r.SeedReplica(body, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(retrieval.EmbedCalls()-embeds)/float64(b.N), "embeds/op")
		b.ReportMetric(float64(len(body)), "body-bytes")
		_, retained := seedBytes(b, body)
		b.ReportMetric(float64(retained)/1e6, "live-MB")
	})
	b.Run("beside-primary", func(b *testing.B) {
		b.ReportAllocs()
		embeds := retrieval.EmbedCalls()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := NewSystem(cfg)
			b.StartTimer()
			h, lsn, lease, err := primary.ReplicationSeed()
			if err != nil {
				b.Fatal(err)
			}
			r.SeedReplicaClone(h, lsn)
			lease.Release()
		}
		b.ReportMetric(float64(retrieval.EmbedCalls()-embeds)/float64(b.N), "embeds/op")
		_, retained := cloneSeedBytes(b, primary)
		b.ReportMetric(float64(retained)/1e6, "live-MB")
	})
	b.Run("first-apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := NewSystem(cfg)
			h, lsn, lease, err := primary.ReplicationSeed()
			if err != nil {
				b.Fatal(err)
			}
			r.SeedReplicaClone(h, lsn)
			if _, err := primary.Ingest(benchFiles(1500+i, 1501+i)); err != nil {
				b.Fatal(err)
			}
			rec := logRecords(b, primary, lsn, lsn+1)[0]
			b.StartTimer()
			if err := r.ReplicaApply(rec); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			lease.Release()
			b.StartTimer()
		}
	})
}
