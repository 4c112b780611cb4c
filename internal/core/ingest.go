package core

import (
	"fmt"
	"strings"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/extract"
	"multirag/internal/jsonld"
	"multirag/internal/par"
	"multirag/internal/retrieval"
)

// IngestReport summarises an Ingest call. Under group commit the
// entity/triple/chunk deltas are still exact per batch — they are measured
// while the batch's parts replay.
type IngestReport struct {
	Extraction extract.Report
	Chunks     int
}

// fileWork is one prepared file, the output of the parallel preparation
// stage: its part of the group record (encodeFile), the chunks' embeddings in
// sparse form (retrieval.Sparse), which the commit posts and the record does
// not hold, and its counts. Nothing else of the file is kept: the commit
// replays the part (replayPart), and the log writes it as it lies.
type fileWork struct {
	report extract.Report
	part   []byte
	rows   retrieval.Sparse
	chunks int
	err    error
}

// prepared is one Ingest call's batch after the fan-out stage: everything the
// committer needs to replay it under the critical section, plus the slots the
// committer fills in (report, error, completion flag — all read back by the
// waiting caller under the committer lock).
type prepared struct {
	ticket uint64
	work   []fileWork
	llm    time.Duration // per-caller virtual LLM latency of the fan-out

	rep  IngestReport
	err  error
	done bool
}

// Ingest fuses, extracts and indexes the given files. It can be called
// repeatedly and concurrently with queries.
//
// Ingest is a two-stage pipeline. Stage 1 — format adaptation, knowledge
// extraction into private operation recorders (where the LLM calls happen)
// and chunk rendering plus embedding — runs entirely OUTSIDE the write lock
// on the shared worker pool, so any number of concurrent Ingest callers
// overlap their fan-outs. Stage 2 is a single group committer: each call
// takes a ticket on arrival, enqueues its prepared batch, and the committer
// drains every consecutive ready batch as one group — under a short critical
// section it replays the batches' parts onto one COW clone in ticket order,
// batch-appends the pre-embedded chunks and publishes ONE snapshot for the
// whole group. Commit order equals arrival
// order; per-batch reports stay exact (deltas measured during replay); a
// batch that fails to prepare or replay is skipped — its caller gets the
// error, its group-mates commit, and nothing of the failed batch becomes
// visible. Queries never block either way.
//
// LLM cost is metered per caller on a forked ingest model, so interleaved
// fan-outs cannot pollute each other's BuildCost attribution.
func (s *System) Ingest(files []adapter.RawFile) (IngestReport, error) {
	p := &prepared{}
	s.admit(p)
	s.prepare(p, files)
	return s.commitJoin(p)
}

// prepare runs stage 1 for one batch: fuse, extract into recorders, render
// and embed chunks. It holds no lock; the only shared state it touches is the
// bounded worker pool and the (concurrency-safe) usage fold-back into the
// ingest model template.
func (s *System) prepare(p *prepared, files []adapter.RawFile) {
	model := s.ingestModel.Fork()
	defer func() {
		p.llm = model.VirtualLatency()
		s.ingestModel.AddUsage(model.Usage())
	}()
	ext := extract.New(model)
	fused, err := s.registry.FuseParallel(files, s.Workers())
	if err != nil {
		p.err = err
		return
	}
	work := s.prepareFiles(ext, fused)
	for i := range work {
		if work[i].err != nil {
			p.err = work[i].err
			break
		}
	}
	p.work = work
	if p.err == nil {
		p.rep.Extraction = mergedBatchReport(work)
	}
}

// prepareFiles runs the per-file half of stage 1 over the fused files on the
// worker pool: extraction into a pooled recorder, chunk rendering, embedding
// into sparse rows, and the file's part of the WAL group record. Once a
// file's part is encoded, its recorder goes back to the pool and its chunks
// and fused[i] are dropped, so a prepared batch holds each fact once, in its
// part.
func (s *System) prepareFiles(ext *extract.Extractor, fused []*jsonld.Normalized) []fileWork {
	dim := s.snap.Load().index.Dim()
	work := make([]fileWork, len(fused))
	par.ForEach(s.Workers(), len(fused), func(i int) {
		w := &work[i]
		sc := getEmbedScratch(dim)
		defer putEmbedScratch(sc)
		rec := &sc.rec
		rec.Reset()
		if w.report, w.err = ext.BuildFile(rec, fused[i]); w.err != nil {
			return
		}
		chunks := RenderChunks(fused[i], chunkBudget)
		fused[i] = nil
		w.part, w.rows = encodeFile(rec, chunks, sc)
		w.chunks = len(chunks)
	})
	return work
}

// mergedBatchReport folds the per-file extraction reports into one batch
// report. It adopts the first file's ByFormat map instead of allocating a
// fresh one per batch — per-file reports are single-use, so the commit path
// reuses their maps rather than growing a new allocation per commit.
// Entities/Triples are left zero here; the committer measures them against
// the shared clone during replay.
func mergedBatchReport(work []fileWork) extract.Report {
	if len(work) == 0 {
		return extract.Report{ByFormat: map[string]int{}}
	}
	rep := work[0].report
	if rep.ByFormat == nil {
		rep.ByFormat = map[string]int{}
	}
	for i := 1; i < len(work); i++ {
		rep.Merge(work[i].report)
	}
	return rep
}

// chunkBudget is the token budget of one chunk in the retrieval index.
const chunkBudget = 64

// RenderChunks converts a normalised file into retrievable chunks. Text
// records chunk their raw paragraphs; structured records are verbalised as
// benchmark-grammar sentences so that chunk retrieval and per-query LLM
// extraction can reach the same facts the KG holds. It is exported for the
// benchmark harness, which builds identical baseline environments.
func RenderChunks(n *jsonld.Normalized, chunkTokens int) []retrieval.Chunk {
	var out []retrieval.Chunk
	for _, doc := range n.JSC {
		if v, ok := doc.Get("text"); ok && v.Str != "" {
			out = append(out, retrieval.ChunkText(doc.ID, n.Source, v.Str, chunkTokens)...)
			continue
		}
		text := verbalise(doc)
		if text != "" {
			out = append(out, retrieval.ChunkText(doc.ID, n.Source, text, chunkTokens)...)
		}
	}
	return out
}

// verbalise renders a structured record as sentences.
func verbalise(doc *jsonld.Document) string {
	subject := ""
	for _, key := range []string{"@key", "name", "title", "id", "flight", "symbol", "subject"} {
		if v, ok := doc.Get(key); ok && v.Str != "" {
			subject = v.Str
			break
		}
	}
	if subject == "" {
		return ""
	}
	// Native-KG triples verbalise directly.
	if p, ok := doc.Get("predicate"); ok {
		if o, oko := doc.Get("object"); oko {
			return fmt.Sprintf("The %s of %s is %s.",
				strings.ReplaceAll(p.Str, "_", " "), subject, o.Str)
		}
	}
	var sents []string
	var walk func(d *jsonld.Document, prefix string)
	walk = func(d *jsonld.Document, prefix string) {
		for _, k := range d.Keys() {
			v, _ := d.Get(k)
			name := strings.TrimPrefix(k, "@")
			if i := strings.IndexByte(name, '/'); i >= 0 {
				name = name[:i]
			}
			if prefix != "" {
				name = prefix + " " + name
			}
			if v.Node != nil {
				walk(v.Node, name)
				continue
			}
			if k == "@key" || (prefix == "" && v.Str == subject) {
				continue
			}
			for _, val := range v.Strings() {
				sents = append(sents, fmt.Sprintf("The %s of %s is %s.",
					strings.ReplaceAll(name, "_", " "), subject, val))
			}
		}
	}
	walk(doc, "")
	return strings.Join(sents, " ")
}
