package core

import (
	"testing"

	"multirag/internal/adapter"
)

var digestSink uint64

// BenchmarkSnapshotDigest measures one anti-entropy digest of a snapshot of a
// few thousand entities and chunks. The body is streamed into the hash, so
// B/op should stay a small fraction of the body's size (reported as
// body-bytes) however large the snapshot grows. Run with -benchmem, or via
// `make bench-micro`.
func BenchmarkSnapshotDigest(b *testing.B) {
	s := NewSystem(durTestConfig())
	var files []adapter.RawFile
	for k := 0; k < 1500; k++ {
		files = append(files, disjointBatch(k)...)
		files = append(files, ingestBatch(k)[1]) // one text chunk each
	}
	if _, err := s.Ingest(files); err != nil {
		b.Fatal(err)
	}
	h := s.ServingHandle()
	b.ReportMetric(float64(len(h.Encode())), "body-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = h.Digest()
	}
}
