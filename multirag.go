package multirag

import (
	"context"
	"fmt"
	"strings"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/confidence"
	"multirag/internal/core"
	"multirag/internal/llm"
)

// File is one raw data file to ingest.
type File struct {
	// Domain is the data domain ("movies", "flights", ...).
	Domain string
	// Source names the originating data source.
	Source string
	// Name is the file name.
	Name string
	// Format selects the adapter: "csv", "json", "xml", "kg" or "text".
	Format string
	// Meta is optional file metadata. Meta["key"] designates the record
	// property naming the entity for semi-structured data; Meta["type"] sets
	// the entity type.
	Meta map[string]string
	// Content is the raw file content.
	Content []byte
}

// Config tunes a System. The zero value reproduces the paper's
// hyper-parameter settings (α = 0.5, β = 0.5, θ = 0.7, graph threshold 0.5).
type Config struct {
	// Seed drives the deterministic simulated language model.
	Seed uint64
	// Alpha balances LLM-assessed authority against historical authority
	// (Eq. 9); zero means the paper default 0.5. Use a negative value for
	// an explicit 0.
	Alpha float64
	// NodeThreshold is the node-confidence cut-off θ (default 0.7).
	NodeThreshold float64
	// GraphThreshold is the subgraph-confidence cut-off (default 0.5).
	GraphThreshold float64
	// DisableMKA turns off multi-source knowledge aggregation (ablation):
	// queries never consult the line graph and answer from retrieved chunks.
	DisableMKA bool
	// DisableGraphLevel / DisableNodeLevel turn off the two confidence
	// stages (ablations).
	DisableGraphLevel bool
	DisableNodeLevel  bool
	// Workers bounds the ingestion worker pool and the AskEach fan-out
	// (0 = GOMAXPROCS).
	Workers int
}

// Answer is the trustworthy response to a query.
type Answer struct {
	// Query echoes the input.
	Query string
	// Values is the answer value set (possibly multi-truth).
	Values []string
	// Found reports whether any evidence was located.
	Found bool
	// Trusted lists the accepted evidence as (value, source, confidence).
	Trusted []EvidenceItem
	// Rejected counts claims eliminated by confidence filtering.
	Rejected int
	// GraphConfidences lists C(G) per candidate homologous subgraph.
	GraphConfidences []float64
	// Intent is the parsed query intent ("attribute_lookup", "multi_hop",
	// "comparison").
	Intent string
	// Degraded marks a partial answer: the evaluation was cut short by its
	// deadline, a cancellation, an injected fault or a contained panic, and
	// Values reflects only the work that completed.
	// Ask, and AskEach with nil contexts, never set it outside fault
	// injection.
	Degraded bool
	// DegradedReason names why ("deadline", "canceled", "panic: ...", or the
	// injected error's text); empty when Degraded is false.
	DegradedReason string
}

// EvidenceItem is one accepted claim.
type EvidenceItem struct {
	Value      string
	Source     string
	Confidence float64
}

// Stats summarises an ingested corpus.
type Stats struct {
	Entities        int
	Triples         int
	HomologousNodes int
	IsolatedClaims  int
	Chunks          int
	// BuildTime is the modelled cost of extraction: the priced latency of
	// the simulated LLM calls every ingest made, not wall time.
	BuildTime time.Duration
}

// System is a MultiRAG deployment over one corpus. All methods are safe for
// concurrent use: queries run against immutable, atomically swapped
// snapshots, so any number of Ask/Retrieve goroutines can proceed while
// IngestFiles batches are committed. Concurrent IngestFiles calls overlap
// their extraction fan-outs and are group-committed in arrival order; each
// batch becomes visible atomically.
type System struct {
	inner *core.System
}

// Open creates an in-memory System from cfg. State lives only in the
// process; use OpenDurable for a deployment that survives restarts.
func Open(cfg Config) *System {
	return &System{inner: core.NewSystem(coreConfig(cfg))}
}

// RecoveryInfo summarises what OpenDurable found on disk.
type RecoveryInfo = core.RecoveryInfo

// ErrUnsupportedFormat is wrapped by the error OpenDurable returns for a
// directory holding a checkpoint or WAL record in an on-disk format other than
// format 4, the one this release writes: format 1 stored vectors dense, format
// 2 did not front-code its strings, and format 3 stored every vector and the
// line graph. The directory is left untouched; the error names the format
// that an earlier release must read to migrate it, one format at a time.
var ErrUnsupportedFormat = core.ErrUnsupportedFormat

// ErrCommit is wrapped by the error IngestFiles returns when the files were
// accepted but their commit failed — its replay, or on a durable System its
// write-ahead log append. Nothing of the batch became visible; the failure is
// the System's, not the files', and the same call may be retried.
var ErrCommit = core.ErrCommit

// OpenDurable opens (or initialises) a durable System backed by dir: every
// acknowledged IngestFiles batch is written to a write-ahead log and fsync'd
// before the call returns, and a background checkpointer periodically folds
// the log into a snapshot. On open, the newest valid checkpoint is loaded and
// the WAL tail replayed on top of it, so the corpus resumes exactly where the
// previous process — cleanly shut down or crashed — left it. The caller must
// Close the system to take the final checkpoint.
func OpenDurable(dir string, cfg Config) (*System, RecoveryInfo, error) {
	inner, info, err := core.Open(dir, coreConfig(cfg))
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	return &System{inner: inner}, *info, nil
}

// Close flushes a durable System: it stops the background checkpointer,
// writes a final checkpoint (so the next OpenDurable recovers from the
// snapshot alone) and closes the log. On an in-memory System it is a no-op.
// Close is idempotent; ingests racing Close fail without being acknowledged.
func (s *System) Close() error { return s.inner.Close() }

// coreConfig maps the public configuration onto the engine's.
func coreConfig(cfg Config) core.Config {
	mcc := confidence.DefaultConfig()
	if cfg.Alpha != 0 {
		mcc.Alpha = cfg.Alpha
		if cfg.Alpha < 0 {
			mcc.Alpha = 0
		}
	}
	if cfg.NodeThreshold != 0 {
		mcc.NodeThreshold = cfg.NodeThreshold
	}
	if cfg.GraphThreshold != 0 {
		mcc.GraphThreshold = cfg.GraphThreshold
	}
	llmCfg := llm.DefaultConfig()
	if cfg.Seed != 0 {
		llmCfg.Seed = cfg.Seed
	}
	return core.Config{
		LLM:        llmCfg,
		MCC:        mcc,
		DisableMKA: cfg.DisableMKA,
		Workers:    cfg.Workers,
		Ablation: confidence.Options{
			DisableGraphLevel: cfg.DisableGraphLevel,
			DisableNodeLevel:  cfg.DisableNodeLevel,
		},
	}
}

// IngestFiles adapts, fuses and indexes the given files, extending the
// knowledge graph and incrementally updating the multi-source line graph.
// Per-file adaptation, extraction and embedding run on a bounded worker pool
// (Config.Workers) outside any lock, so concurrent IngestFiles callers
// overlap that expensive work; prepared batches are then group-committed in
// arrival order. Each batch commits atomically — concurrent Ask calls see
// either the whole batch or none of it — and a failing batch never blocks or
// poisons batches committed alongside it. The error of a batch whose files
// were accepted but whose commit failed wraps ErrCommit.
func (s *System) IngestFiles(files ...File) error {
	raw := make([]adapter.RawFile, 0, len(files))
	for _, f := range files {
		if err := checkFile(f); err != nil {
			return err
		}
		raw = append(raw, adapter.RawFile{
			Domain: f.Domain, Source: f.Source, Name: f.Name,
			Format: f.Format, Meta: f.Meta, Content: f.Content,
		})
	}
	_, err := s.inner.Ingest(raw)
	return err
}

// maxIdentifierBytes bounds each of a file's identifiers: Domain, Source,
// Name, Format and every Meta key and value. Adapters format the identity
// into every row's ID, so a long one is stored once per row: without the
// bound a 13 KB file with a 1 MiB name retains hundreds of megabytes. Real
// identifiers are far shorter: the longest in the datasets presets and the
// benchmark corpus and its delta stream is 34 bytes.
const maxIdentifierBytes = 1 << 10

// checkFile rejects a file missing a required field or with an identifier
// over maxIdentifierBytes. The error names the problem and the file's first
// 64 runes of domain, source and name, never its content: it is a front
// door's 400 body, so it stays short whatever the request held.
func checkFile(f File) error {
	bad := func(problem string) error {
		return fmt.Errorf("multirag: file (domain %.64q, source %.64q, name %.64q) %s",
			f.Domain, f.Source, f.Name, problem)
	}
	overlong := func(field string, n int) error {
		return bad(fmt.Sprintf("has a %s of %d bytes, over the %d-byte identifier limit", field, n, maxIdentifierBytes))
	}
	fields := [...]struct{ name, v string }{
		{"Domain", f.Domain}, {"Source", f.Source}, {"Name", f.Name}, {"Format", f.Format},
	}
	var missing []string
	for _, fld := range fields {
		if fld.v == "" {
			missing = append(missing, fld.name)
		}
	}
	if len(missing) > 0 {
		return bad("is missing " + strings.Join(missing, ", "))
	}
	for _, fld := range fields {
		if len(fld.v) > maxIdentifierBytes {
			return overlong(fld.name, len(fld.v))
		}
	}
	for k, v := range f.Meta {
		if len(k) > maxIdentifierBytes {
			return overlong("Meta key", len(k))
		}
		if len(v) > maxIdentifierBytes {
			return overlong("Meta value", len(v))
		}
	}
	return nil
}

// Ask answers a natural-language question over the ingested corpus.
// Supported grammars: "What is the <attribute> of <entity>?", the two-hop
// form "What is the <a> of the <r> of <entity>?", and "Do <e1> and <e2> have
// the same <attribute>?".
//
// Ask is safe for unbounded concurrent use, including while IngestFiles is
// running: each call evaluates against one immutable snapshot.
func (s *System) Ask(query string) Answer {
	return convertAnswer(s.inner.Query(query))
}

// AskEach answers queries[i] under ctxs[i], fanning them out across the
// worker pool (Config.Workers, default GOMAXPROCS) and returning the answers
// in input order. A nil ctxs, or a nil entry, means no deadline. All the
// queries evaluate against one published snapshot, so every answer reflects
// the same corpus state; AskEach may still be interleaved with IngestFiles
// (later calls observe later snapshots). The serving layer calls it once per
// admitted request, with the request's queries under its SLO deadline and
// client disconnect signal: a query whose context ends mid-evaluation yields
// a Degraded answer, and the others are unaffected.
func (s *System) AskEach(ctxs []context.Context, queries []string) []Answer {
	return askEach(s.inner, ctxs, queries)
}

// askEach is AskEach on any engine: the primary's or a replica's.
func askEach(sys *core.System, ctxs []context.Context, queries []string) []Answer {
	answers := sys.QueryEach(ctxs, queries)
	out := make([]Answer, len(answers))
	for i := range answers {
		out[i] = convertAnswer(answers[i])
	}
	return out
}

// convertAnswer maps a core answer onto the public shape.
func convertAnswer(a core.Answer) Answer {
	out := Answer{
		Query:            a.Query,
		Values:           a.Values,
		Found:            a.Found,
		Rejected:         a.RejectedCount,
		GraphConfidences: a.GraphConfidences,
		Intent:           a.LogicForm.Intent,
		Degraded:         a.Degraded,
		DegradedReason:   a.DegradedReason,
	}
	if len(a.Trusted) > 0 {
		out.Trusted = make([]EvidenceItem, 0, len(a.Trusted))
	}
	for _, tn := range a.Trusted {
		out.Trusted = append(out.Trusted, EvidenceItem{
			Value:      tn.Triple.Object,
			Source:     tn.Triple.Source,
			Confidence: tn.Confidence,
		})
	}
	return out
}

// DurabilityInfo is the durability layer's live health.
type DurabilityInfo = core.DurabilityStatus

// Durability reports the WAL append latch and checkpoint positions; the
// zero value on in-memory systems. It never waits for a commit in progress.
func (s *System) Durability() DurabilityInfo { return s.inner.DurabilityStatus() }

// IngestPressure reports the ingest pipeline's admission state: how many
// IngestFiles calls are past admission (preparing, queued or committing) and
// the bounded-pipeline capacity at which further callers block. A serving
// front door polls it to reject ingest traffic early (backpressure) instead
// of letting request handlers block inside the group committer.
func (s *System) IngestPressure() (inflight, capacity int) {
	return s.inner.IngestPressure()
}

// Retrieve returns the top-k supporting document identifiers for a query,
// ranked by trusted-evidence provenance first and dense similarity second.
func (s *System) Retrieve(query string, k int) []string {
	return s.inner.RetrieveDocs(query, k)
}

// Stats reports corpus statistics.
func (s *System) Stats() Stats {
	// One snapshot load keeps the counts mutually consistent even while an
	// ingest batch commits concurrently; the chunk count comes from the same
	// snapshot's index rather than a separate counter.
	g, sg, ix := s.inner.Serving()
	st := Stats{
		Entities: g.NumEntities(),
		Triples:  g.NumTriples(),
		Chunks:   ix.Len(),
	}
	hs := sg.ComputeStats()
	st.HomologousNodes = hs.HomologousNodes
	st.IsolatedClaims = hs.Isolated
	st.BuildTime = s.inner.BuildCost()
	return st
}
