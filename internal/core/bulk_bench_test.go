package core

import (
	"testing"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/wal"
)

// bulkFiles is the datasets corpus the end-to-end benchmark bulk-loads at
// set-up: the four fusion presets at twice their entity count (its scale 1),
// without its multi-hop documents.
func bulkFiles(tb testing.TB) []adapter.RawFile {
	tb.Helper()
	var files []adapter.RawFile
	for _, spec := range datasets.AllPresets(1) {
		spec.Entities *= 2
		d, err := datasets.Generate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, d.Files...)
	}
	return files
}

// BenchmarkBulkIngest measures the bulk load a deployment pays at set-up:
// the datasets corpus as one Ingest call into a fresh durable system on a
// MemFS — stage 1 (fusion, extraction, chunking, embedding, each file's part
// of the WAL record) on the worker pool, then the commit (replay, the line
// graph's delta, the group record and its append). prepare-ms/op and
// commit-ms/op split ns/op between the two; record-bytes is the size of the
// one WAL record the load writes. The background checkpoint is held off, and
// the final one in Close runs outside the timer. Run with -benchmem, or via
// `make bench-micro`.
func BenchmarkBulkIngest(b *testing.B) {
	files := bulkFiles(b)
	cfg := durTestConfig()
	cfg.CheckpointBytes = 1 << 40
	var prepare, commit time.Duration
	chunks, record := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _, err := OpenFS(wal.NewMemFS(), durDir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		p := &prepared{}
		s.admit(p)
		p.start = time.Now()
		s.prepare(p, files)
		mid := time.Now()
		rep, err := s.commitJoin(p)
		if err != nil {
			b.Fatal(err)
		}
		prepare += mid.Sub(p.start)
		commit += time.Since(mid)
		chunks = rep.Chunks
		b.StopTimer()
		record = len(logRecords(b, s, 0, 1)[0])
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(prepare), "prepare-ms/op")
	b.ReportMetric(perOp(commit), "commit-ms/op")
	b.ReportMetric(float64(chunks), "chunks")
	b.ReportMetric(float64(record), "record-bytes")
}
