//go:build layers

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"multirag"
	"multirag/benchmark/harness"
	"multirag/internal/adapter"
	"multirag/internal/core"
	"multirag/internal/extract"
	"multirag/internal/jsonld"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

const (
	// tailRecords is the WAL tail the recovery measurement replays.
	tailRecords = 256
	// burstRequests is how many ingests two producers send at once to read
	// the commit-group size.
	burstRequests = 64
)

func rawFiles(files []multirag.File) []adapter.RawFile {
	out := make([]adapter.RawFile, len(files))
	for i, f := range files {
		out[i] = adapter.RawFile{Domain: f.Domain, Source: f.Source, Name: f.Name, Format: f.Format, Meta: f.Meta, Content: f.Content}
	}
	return out
}

// engineConfig is the engine configuration multirag.OpenDurable derives from
// multirag.Config{Seed: 1}, with background checkpointing switched off so
// that WAL counts are exact.
func engineConfig() core.Config {
	cfg := llm.DefaultConfig()
	cfg.Seed = 1
	return core.Config{LLM: cfg, CheckpointRecords: 1 << 30, CheckpointBytes: 1 << 40}
}

// writer replays write requests level by level. The loopback round trip and
// the handler run on the served stack; core.ingest runs on dsys, a bare
// durable engine over the same base corpus with checkpointing off; the
// leaves are re-enacted against bare, an in-memory engine over the same
// corpus. Every level gets files it has not seen, from the same generator.
type writer struct {
	st   *harness.Stack
	bare *core.System
	dsys *core.System
	dir  string // dsys data directory
	root string // scratch space for the re-appended log and the tail copy
	// delta is the ingest sequence; the writer uses positions from next on.
	delta func(i int) []multirag.File
	next  int
	// reqBase is added to a write's index to make its trace request number,
	// so that writes do not share numbers with the reads replayed before them.
	reqBase int
}

// take returns the next unused request of the ingest sequence.
func (wr *writer) take() []multirag.File {
	wr.next++
	return wr.delta(wr.next - 1)
}

// settleTimeout bounds the wait for the served stack's replicas to catch up
// before a single-goroutine timing, which their applies would otherwise
// share the CPU with.
const settleTimeout = time.Minute

// servedIngest keys the durations of System.IngestFiles on the served system.
const servedIngest = "core.ingest.served"

// stackLevels sends one fresh request over loopback and another straight into
// the handler of the served stack, and returns the handler's span ID to hang
// the lower levels under. The replicas are left to catch up after each, so
// a request is timed against an idle stack, as the lower levels are.
func (wr *writer) stackLevels(rec *recorder, r int) (handlerID int, err error) {
	r += wr.reqBase
	req := harness.IngestRequest(wr.take())
	start := time.Now()
	var raw json.RawMessage
	lat, err := wr.st.Do(req, &raw)
	if err != nil {
		return 0, err
	}
	httpID := rec.add(0, r, "client.http", start, lat)
	if err := wr.st.Settle(settleTimeout); err != nil {
		return 0, err
	}
	req = harness.IngestRequest(wr.take())
	hr := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
	w := httptest.NewRecorder()
	handlerID = rec.timed(httpID, r, "serve.handler", func() { wr.st.Srv.Handler().ServeHTTP(w, hr) })
	if w.Code != http.StatusOK {
		return 0, fmt.Errorf("handler replay of %s: HTTP %d", req.Path, w.Code)
	}
	if err := wr.st.Settle(settleTimeout); err != nil {
		return 0, err
	}
	// The engine entry point of the same served system, for the handler's
	// self time; core.ingest runs on another engine, without replicas.
	files := wr.take()
	start = time.Now()
	if err := wr.st.Sys.IngestFiles(files...); err != nil {
		return 0, err
	}
	rec.durs[servedIngest] = append(rec.durs[servedIngest], time.Since(start))
	return handlerID, wr.st.Settle(settleTimeout)
}

// levels ingests tailRecords fresh requests into dsys one at a time, re-appends
// their real WAL payloads to a fresh log and applies them to a replica seeded
// from dsys's checkpoint. The first traced requests are also sent through the
// served stack, each right before its dsys ingest so that slow drift of the
// machine cancels between the levels, and are linked into the trace. It
// returns the requests dsys ingested and, for the traced ones, what the write
// leaves of each took together; it reports the exact WAL counts.
func (wr *writer) levels(rec *recorder, traced int, out *report) (used [][]multirag.File, leafTotals []time.Duration, err error) {
	fsys := wal.OSFS{}
	ckptBody, ckptLSN, err := wal.LoadCheckpoint(fsys, wr.dir)
	if err != nil || ckptBody == nil {
		return nil, nil, fmt.Errorf("dsys checkpoint: %v", err)
	}
	walBefore, err := prefixBytes(wr.dir, "wal-")
	if err != nil {
		return nil, nil, err
	}
	// Only the requests that have a handler span above them go into the
	// trace; the rest of the tail feeds the medians.
	keep := rec.keep
	defer func() { rec.keep = keep }()
	var userBytes int64
	coreIDs := make([]int, tailRecords)
	for r := 0; r < tailRecords; r++ {
		rec.keep = keep && r < traced
		parent := 0
		if r < traced {
			if parent, err = wr.stackLevels(rec, r); err != nil {
				return nil, nil, err
			}
		}
		files := wr.take()
		used = append(used, files)
		for _, f := range files {
			userBytes += int64(len(f.Content))
		}
		raw := rawFiles(files)
		var ierr error
		coreIDs[r] = rec.timed(parent, wr.reqBase+r, "core.ingest", func() { _, ierr = wr.dsys.Ingest(raw) })
		if ierr != nil {
			return nil, nil, ierr
		}
		if r < traced {
			leaves, err := wr.leaves(rec, coreIDs[r], wr.reqBase+r, files)
			if err != nil {
				return nil, nil, err
			}
			leafTotals = append(leafTotals, leaves)
		}
	}
	walAfter, err := prefixBytes(wr.dir, "wal-")
	if err != nil {
		return nil, nil, err
	}
	records := wr.dsys.ReplicationLSN() - ckptLSN
	out.set("wal.fsyncs_per_request", float64(records)/tailRecords, "count", tailRecords)
	out.set("wal.bytes_per_user_byte", float64(walAfter-walBefore)/float64(userBytes), "ratio", tailRecords)

	// The tail copy is taken now: a checkpoint plus exactly this tail.
	if err := copyDir(wr.dir, filepath.Join(wr.root, "tail")); err != nil {
		return nil, nil, err
	}

	start := time.Now()
	sr, err := wal.Scan(fsys, wr.dir, ckptLSN)
	if err != nil {
		return nil, nil, err
	}
	scan := time.Since(start)
	var payloadBytes int
	for _, p := range sr.Records {
		payloadBytes += len(p)
	}
	out.set("wal.scan_mb_s", float64(payloadBytes)/1e6/scan.Seconds(), "MB/s", len(sr.Records))
	if len(sr.Records) != tailRecords {
		return nil, nil, fmt.Errorf("scanned %d WAL records, ingested %d requests one at a time", len(sr.Records), tailRecords)
	}

	relog, err := wal.OpenLog(fsys, filepath.Join(wr.root, "relog"), &wal.ScanResult{})
	if err != nil {
		return nil, nil, err
	}
	defer relog.Close()
	replica := core.NewSystem(engineConfig())
	if err := replica.SeedReplica(ckptBody, ckptLSN); err != nil {
		return nil, nil, err
	}
	for r, payload := range sr.Records {
		rec.keep = keep && r < traced
		var aerr error
		rec.timed(coreIDs[r], wr.reqBase+r, "wal.append", func() { _, aerr = relog.Append(payload) })
		if aerr != nil {
			return nil, nil, aerr
		}
		rec.timed(coreIDs[r], wr.reqBase+r, "core.replica_apply", func() { aerr = replica.ReplicaApply(payload) })
		if aerr != nil {
			return nil, nil, aerr
		}
	}
	if replica.SnapshotDigest() != wr.dsys.SnapshotDigest() {
		return nil, nil, fmt.Errorf("replica diverged from dsys after %d applies", tailRecords)
	}
	return used, leafTotals, nil
}

// leaves re-enacts core's prepare and commit stages for one request against
// the bare system's snapshot, timing each call into a layer. It follows
// ingest.go and committer.go; nothing is published, so every request sees
// the same state size.
func (wr *writer) leaves(rec *recorder, parent, req int, files []multirag.File) (time.Duration, error) {
	var total time.Duration
	var err error
	timed := func(name string, fn func()) time.Duration {
		start := time.Now()
		fn()
		d := time.Since(start)
		total += d
		rec.add(parent, req, name, start, d)
		return d
	}
	model := wr.bare.Model().Fork()
	ext := extract.New(model)
	g, sg, searcher := wr.bare.Serving()
	index := searcher.(retrieval.Store)

	var fused []*jsonld.Normalized
	timed("adapter.fuse", func() { fused, err = adapter.NewRegistry().Fuse(rawFiles(files)) })
	if err != nil {
		return 0, err
	}
	recs := make([]*extract.Recorder, len(fused))
	var chunks []retrieval.Chunk
	for i, f := range fused {
		recs[i] = extract.NewRecorder()
		d := timed("extract.build", func() { _, err = ext.BuildFile(recs[i], f) })
		if err != nil {
			return 0, err
		}
		rec.durs["extract.build."+f.Format] = append(rec.durs["extract.build."+f.Format], d)
		timed("core.render_chunks", func() { chunks = append(chunks, core.RenderChunks(f, 64)...) })
	}
	vecs := make([]retrieval.Vector, len(chunks))
	timed("retrieval.embed", func() {
		for i, c := range chunks {
			vecs[i] = retrieval.Embed(c.Text, index.Dim())
		}
	})
	clone := g
	timed("kg.clone", func() { clone = g.Clone() })
	var ids []string
	timed("kg.replay", func() {
		for _, r := range recs {
			if ids, err = r.ReplayAppend(clone, ids); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	timed("retrieval.clone_append", func() { index.CloneForAppend().AddEmbeddedBatch(chunks, vecs) })
	timed("linegraph.build_delta", func() { linegraph.BuildDelta(sg, clone, ids).ComputeStats() })
	return total, nil
}

// extractTimes times the model's entity and triple extraction over the text
// documents among files.
func extractTimes(model *llm.Sim, requests [][]multirag.File) []time.Duration {
	var out []time.Duration
	for _, files := range requests {
		for _, f := range files {
			if f.Format != "text" {
				continue
			}
			text := string(f.Content)
			start := time.Now()
			model.ExtractTriples(text, model.ExtractEntities(text))
			out = append(out, time.Since(start))
		}
	}
	return out
}

// groupSize has two producers ingest burstRequests fresh requests into dsys
// at once and returns acknowledged requests per WAL record.
func (wr *writer) groupSize() (float64, error) {
	work := make([][]adapter.RawFile, burstRequests)
	for i := range work {
		work[i] = rawFiles(wr.take())
	}
	before := wr.dsys.ReplicationLSN()
	errs := make([]error, harness.Clients)
	var wg sync.WaitGroup
	for c := 0; c < harness.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(work); i += harness.Clients {
				if _, err := wr.dsys.Ingest(work[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return burstRequests / float64(wr.dsys.ReplicationLSN()-before), nil
}

// recovery closes dsys and measures a clean open (checkpoint only), then an
// open of the tail copy, which replays tailRecords records on top of the
// earlier checkpoint. What replay costs is the difference between the two; it
// is a few per cent of either, so both are reported rather than a quotient.
func (wr *writer) recovery(out *report) error {
	if err := wr.dsys.Close(); err != nil {
		return err
	}
	var cleanMS []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		sys, _, err := core.Open(wr.dir, engineConfig())
		if err != nil {
			return err
		}
		cleanMS = append(cleanMS, float64(time.Since(start))/float64(time.Millisecond))
		if err := sys.Close(); err != nil {
			return err
		}
	}
	out.set("core.open_ms", harness.Median(cleanMS), "ms", len(cleanMS))

	start := time.Now()
	sys, info, err := core.Open(filepath.Join(wr.root, "tail"), engineConfig())
	if err != nil {
		return err
	}
	tail := time.Since(start)
	if err := sys.Close(); err != nil {
		return err
	}
	if info.RecordsReplayed != tailRecords {
		return fmt.Errorf("tail open replayed %d records, want %d", info.RecordsReplayed, tailRecords)
	}
	out.set("core.open_tail_ms", ms(tail), "ms", tailRecords)
	return nil
}

// prefixBytes sums the files in dir whose name starts with prefix.
func prefixBytes(dir, prefix string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
