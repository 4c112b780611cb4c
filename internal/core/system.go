// Package core implements the MultiRAG pipeline itself: the MKLGP algorithm
// (Algorithm 2) orchestrating logic-form generation, multi-document
// extraction, multi-source line-graph construction, multi-level confidence
// computing and trustworthy answer generation, plus the ablation switches
// behind Table III.
package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/confidence"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/par"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// Config assembles a MultiRAG system.
type Config struct {
	// LLM configures the simulated model. Zero value = llm.DefaultConfig().
	LLM llm.Config
	// MCC configures confidence computing. Zero value = paper defaults.
	MCC confidence.Config
	// Ablation toggles the confidence stages (Table III's "w/o Graph
	// Level", "w/o Node Level", both = "w/o MCC").
	Ablation confidence.Options
	// DisableMKA removes multi-source knowledge aggregation (Table III's
	// "w/o MKA"): queries never consult the line graph, and every query
	// falls back to chunk retrieval plus per-query LLM extraction. Ingest
	// is unchanged; the line graph is a view over the graph either way.
	DisableMKA bool
	// Workers bounds the ingestion worker pool (adapter parsing, per-file
	// extraction, chunk embedding) and the query-DAG fan-out. 0 selects
	// GOMAXPROCS.
	Workers int
	// CheckpointRecords is how many WAL records may accumulate past the last
	// checkpoint before the background checkpointer folds the log into a new
	// one (durable systems only; <=0 selects DefaultCheckpointRecords).
	CheckpointRecords int
	// CheckpointBytes triggers a checkpoint once the active WAL segment
	// exceeds this many bytes (<=0 selects DefaultCheckpointBytes).
	CheckpointBytes int
}

// snapshot is one immutable serving state: the knowledge graph, its
// homologous line graph and the chunk index, frozen at an ingest boundary.
// The write path builds the next snapshot aside (cloned graph, cloned index
// appended to behind this snapshot's rows, the line-graph view over the
// clone) and publishes it with a single atomic pointer swap, so
// any number of query goroutines read a consistent view while ingestion
// proceeds — the read-path/write-path split of production retrieval stores.
type snapshot struct {
	graph *kg.Graph
	sg    *linegraph.SG
	index *retrieval.Index
	// gen is the publication generation, bumped on every snapshot swap. It
	// keys the evidence memo: evaluations computed against generation g are
	// served only while g is still the published generation.
	gen uint64
}

// System is an assembled MultiRAG deployment over one corpus. Queries are
// safe for unbounded concurrency and may run while ingestion commits.
// Concurrent Ingest calls overlap their expensive fan-out phases and are
// group-committed in arrival order by a single committer (see ingest.go /
// committer.go); RebuildSG serialises against the commit path.
type System struct {
	cfg      Config
	model    *llm.Sim
	mcc      *confidence.MCC
	registry *adapter.Registry
	// ingestModel is a second deterministic Sim (same config, same seed)
	// that every ingest batch forks its extraction model from, so the
	// preprocessing LLM-cost accounting (BuildCost) cannot be polluted by
	// query traffic hitting the serving model concurrently. Same seed means
	// identical extraction output.
	ingestModel *llm.Sim

	// snap is the atomically published serving snapshot. Query loads it once
	// and runs entirely against that immutable view.
	snap atomic.Pointer[snapshot]

	// embeds memoises query embeddings (pure function of the text, never
	// invalidated); evidence memoises history-independent (entity, relation)
	// sub-question evaluations per snapshot generation (flushed on every
	// publish) so fan-out sub-questions that repeat never re-run MCC. See
	// cache.go.
	embeds   *embedCache
	evidence *evidenceMemo

	// mu guards the commit critical section of the write path (snapshot
	// clone/replay/publish — never the ingest fan-out, which runs before it).
	mu sync.Mutex
	// strs keeps the strings replay decodes into the serving state, packed
	// into shared blocks instead of a heap object each (wal.Arena). Its one
	// writer is whoever holds mu — the committer, a replica's apply — and
	// recovery, before the system is shared.
	strs wal.Arena
	// Preprocessing cost (PT in Table III): the modelled LLM latency of
	// ingestion's extraction, in nanoseconds. Added under mu, read
	// lock-free by BuildCost.
	buildLLM atomic.Int64

	// gc is the group-commit state behind the pipelined Ingest: a ticketed,
	// bounded queue of prepared batches drained by a single committer. See
	// committer.go.
	gc groupCommitter

	// dur is the durability state (WAL, checkpointer) of a system opened with
	// Open/OpenFS; nil for purely in-memory systems. See durable.go.
	dur *durable

	// replPos is the replication position — commit groups ever published,
	// equal to the WAL LSN on durable systems — and wake the channel the next
	// publish closes (chan struct{}); both are written under mu and read
	// lock-free by replicas and the router's staleness guard. walLeases holds
	// the WAL retention floors replicas pin, guarded by mu. See
	// replication.go.
	replPos   atomic.Uint64
	wake      atomic.Value
	walLeases map[*WALLease]struct{}
}

// NewSystem builds an empty system from cfg.
func NewSystem(cfg Config) *System {
	if cfg.LLM == (llm.Config{}) {
		cfg.LLM = llm.DefaultConfig()
	}
	if cfg.MCC == (confidence.Config{}) {
		cfg.MCC = confidence.DefaultConfig()
	}
	model := llm.NewSim(cfg.LLM)
	s := &System{
		cfg:         cfg,
		model:       model,
		mcc:         confidence.New(cfg.MCC, model, confidence.NewHistoryStore()),
		registry:    adapter.NewRegistry(),
		ingestModel: llm.NewSim(cfg.LLM),
		embeds:      newEmbedCache(retrieval.DefaultDim),
		evidence:    &evidenceMemo{},
	}
	s.gc.init()
	s.wake.Store(make(chan struct{}))
	g := kg.New()
	s.snap.Store(&snapshot{
		graph: g,
		sg:    linegraph.Build(g),
		index: retrieval.NewIndex(retrieval.DefaultDim),
	})
	return s
}

// Workers resolves the configured pool size (Config.Workers, defaulting to
// GOMAXPROCS).
func (s *System) Workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// QueryEach evaluates queries[i] under ctxs[i] concurrently on the worker
// pool (Config.Workers) and returns the answers in input order; a nil ctxs,
// or a nil entry, means no deadline. All the queries run against one
// published snapshot, so every answer reflects the same corpus state even
// while ingestion commits concurrently. The front door calls it once per
// request, on that request's handler, with the request's queries under its
// deadline and disconnect signal: a query whose context ends mid-evaluation
// yields a degraded partial answer while the others proceed unaffected.
// Workers bounds each fan-out level, not a global budget: a multi-hop query
// briefly adds its own hop-2 arms on top of the per-query goroutines, the
// usual transient oversubscription the Go scheduler absorbs.
func (s *System) QueryEach(ctxs []context.Context, queries []string) []Answer {
	sn := s.snap.Load()
	out := make([]Answer, len(queries))
	par.ForEach(s.Workers(), len(queries), func(i int) {
		ctx := context.Background()
		if i < len(ctxs) && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		out[i] = s.query(ctx, sn, queries[i])
	})
	return out
}

// DurabilityStatus is the durability layer's health as seen by serving:
// whether the system is durable at all, whether the WAL has latched an append
// failure (ingest is failing durably until restart), and the checkpoint/LSN
// positions.
type DurabilityStatus struct {
	// Durable reports whether the system was opened with Open/OpenFS.
	Durable bool `json:"durable"`
	// WALAppendErr is the latched write-ahead-log append failure, if any:
	// once an append fails, the log refuses further work until restart, so
	// ingest is failing durably while this is non-empty. Empty when healthy.
	WALAppendErr string `json:"wal_append_err,omitempty"`
	// LastCheckpointLSN is the log position covered by the newest checkpoint.
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
	// NextLSN is the next log position to be written — the count of records
	// ever committed.
	NextLSN uint64 `json:"next_lsn"`
}

// DurabilityStatus reports the WAL append latch and checkpoint positions.
// All-zero on in-memory systems. It reads atomics only, so a health probe
// never waits behind a commit holding the write lock.
func (s *System) DurabilityStatus() DurabilityStatus {
	d := s.dur
	if d == nil {
		return DurabilityStatus{}
	}
	st := DurabilityStatus{Durable: true, LastCheckpointLSN: d.lastCkpt.Load(), NextLSN: s.replPos.Load()}
	if err := d.appendErr.Load(); err != nil {
		st.WALAppendErr = (*err).Error()
	}
	return st
}

// Model exposes the serving-side simulated LLM (query-time usage
// accounting). Ingestion-time extraction runs on a separate same-seed model
// whose cost surfaces through BuildCost.
func (s *System) Model() *llm.Sim { return s.model }

// Graph exposes the current snapshot's knowledge graph. The perturbation
// harness mutates it in place and then calls RebuildSG; that pattern requires
// the caller to guarantee no concurrent queries (the experiment harnesses are
// single-threaded). Concurrent readers should treat the result as frozen.
func (s *System) Graph() *kg.Graph { return s.snap.Load().graph }

// SG exposes the current homologous line graph, a view over Graph().
func (s *System) SG() *linegraph.SG { return s.snap.Load().sg }

// MCC exposes the confidence engine.
func (s *System) MCC() *confidence.MCC { return s.mcc }

// Index exposes the current retrieval index.
func (s *System) Index() *retrieval.Index { return s.snap.Load().index }

// Serving returns the components of one published snapshot, so callers can
// derive mutually consistent statistics under concurrent ingestion (separate
// Graph()/SG()/Index() calls may straddle a snapshot swap).
func (s *System) Serving() (*kg.Graph, *linegraph.SG, retrieval.Searcher) {
	sn := s.snap.Load()
	return sn.graph, sn.sg, sn.index
}

// BuildCost returns the preprocessing cost (PT): the modelled LLM latency of
// the extraction every committed Ingest call ran. The process's own build
// time is not part of it.
func (s *System) BuildCost() time.Duration {
	return time.Duration(s.buildLLM.Load())
}

// RebuildSG publishes the current graph again, at the next generation, after
// external graph mutation (perturbation experiments remove or rewrite
// triples in place). The line graph is a view over the graph and the graph
// keeps its counts through removals, so lookups and ComputeStats see the
// mutation at once; what moves only here is the generation, which turns the
// evidence memo over, so no evaluation of the unmutated graph is served.
func (s *System) RebuildSG() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	s.snap.Store(&snapshot{
		graph: cur.graph,
		sg:    linegraph.Build(cur.graph),
		index: cur.index,
		gen:   cur.gen + 1,
	})
}
