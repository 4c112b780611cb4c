package core

import (
	"runtime"
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

// preparedBytes prepares files as one batch on s, without committing it, and
// returns the batch, the heap it retains once collected and its parts' bytes.
func preparedBytes(tb testing.TB, s *System, files []adapter.RawFile) (p *prepared, retained, parts int64) {
	tb.Helper()
	live0, _ := liveHeap()
	p = &prepared{}
	s.prepare(p, files)
	live1, _ := liveHeap()
	if p.err != nil {
		tb.Fatal(p.err)
	}
	for i := range p.work {
		parts += int64(len(p.work[i].part))
	}
	runtime.KeepAlive(files) // live at the first count, so it must be at the second
	return p, live1 - live0, parts
}

// TestPreparedBatchRetainedBytesCeiling bounds the heap a prepared bulk load
// retains between stage 1 and its commit, against the bytes of its files'
// parts of the WAL record: bulkFiles as one batch. A prepared file is its
// part, its chunks' sparse rows and its counts, so a batch that also kept its
// recorders' op streams or its rendered chunks fails it. It reads 1.7
// (x86-64, Go 1.24).
func TestPreparedBatchRetainedBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes heap sizes")
	}
	const ceiling = 2.0 // bytes retained per byte of parts
	p, retained, parts := preparedBytes(t, NewSystem(durTestConfig()), bulkFiles(t))
	got := float64(retained) / float64(parts)
	t.Logf("%d files: %d B retained for %d B of parts: %.2f", len(p.work), retained, parts, got)
	if got > ceiling {
		t.Fatalf("a prepared batch retains %.2f times its parts' bytes, ceiling %.1f", got, ceiling)
	}
}

// BenchmarkBulkIngest measures the bulk load a deployment pays at set-up:
// the datasets corpus as one Ingest call into a fresh durable system on a
// MemFS — stage 1 (fusion, extraction, chunking, embedding, each file's part
// of the WAL record) on the worker pool, then the commit (replay, the group
// record and its append). prepare-ms/op and
// commit-ms/op split ns/op between the two; record-bytes is the size of the
// one WAL record the load writes, and prepared-MB the heap the prepared batch
// retains between the two stages, counted once outside the timed loop. The background checkpoint is held off, and
// the final one in Close runs outside the timer. Run with -benchmem, or via
// `make bench-micro`.
func BenchmarkBulkIngest(b *testing.B) {
	files := bulkFiles(b)
	cfg := durTestConfig()
	cfg.CheckpointBytes = 1 << 40
	var prepare, commit time.Duration
	chunks, record := 0, 0
	_, retained, _ := preparedBytes(b, NewSystem(cfg), files)
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
		start := time.Now()
		s.prepare(p, files)
		mid := time.Now()
		rep, err := s.commitJoin(p)
		if err != nil {
			b.Fatal(err)
		}
		prepare += mid.Sub(start)
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
	b.ReportMetric(float64(retained)/(1<<20), "prepared-MB")
}
