// Package multirag is a from-scratch Go implementation of MultiRAG, the
// knowledge-guided framework for mitigating hallucination in multi-source
// retrieval-augmented generation (Wu et al., ICDE 2025).
//
// MultiRAG ingests heterogeneous data sources — structured CSV tables,
// semi-structured JSON and XML, native knowledge-graph triples and free text
// — normalises them into linked data, extracts a knowledge graph, and builds
// a multi-source line graph that aggregates every claim about one (entity,
// attribute) fact into a homologous subgraph. At query time a multi-level
// confidence computation (graph-level consistency via normalised mutual
// information, node-level consistency + authority + source history) filters
// untrustworthy claims before they reach the language model's context, which
// is what suppresses retrieval-induced hallucination.
//
// # Quick start
//
//	sys := multirag.Open(multirag.Config{})
//	err := sys.IngestFiles(
//		multirag.File{Domain: "flights", Source: "airline", Name: "live",
//			Format: "json", Content: []byte(`[{"flight":"CA981","status":"Delayed"}]`)},
//	)
//	ans := sys.Ask("What is the status of CA981?")
//	fmt.Println(ans.Values) // [Delayed]
//
// A System serves concurrently: queries evaluate against immutable,
// atomically swapped snapshots while ingestion batches commit on a parallel
// write path, so Ask scales across goroutines and IngestFiles never blocks
// readers. See DESIGN.md for the
// snapshot/delta architecture.
//
// For deployment as a service, internal/serve (exposed as the `multirag
// serve` subcommand) wraps a System in an HTTP/JSON front door with a fixed
// count of execution slots, one FIFO line of requests waiting for one with a
// bounded share per query class (interactive or batch), ingest backpressure
// coupled to the group committer via IngestPressure, and a metrics endpoint
// reporting per-class latency percentiles and queue depths. See DESIGN.md §8.
//
// Systems opened with multirag.Open are in-memory; OpenDurable(dir, cfg)
// adds write-ahead logging and checkpointing under dir (CLI: `multirag serve
// -data-dir`). Every acknowledged ingest is fsync'd into the log before its
// snapshot is published, a background checkpointer folds the log into
// snapshots, and reopening the same directory replays the tail — RecoveryInfo
// reports what was found. Durable systems must be Close'd to take the final
// checkpoint; `multirag recover` inspects and repairs a directory offline.
// A release reads only the on-disk format it writes (format 4): a directory
// in any other fails OpenDurable with ErrUnsupportedFormat and is left
// untouched. One format back migrates by being opened once with a release
// that still reads it; see DESIGN.md §9.
//
// Read capacity scales out with NewReplicaSet over a durable System: each
// replica is seeded from the primary's published snapshot, then reads the
// primary's committed WAL records and replays them through the same path
// crash recovery uses, so replica state is byte-identical to the primary's at
// the same position — verified online by comparing snapshot digests every 16
// records. A slow replica just reads further behind, its retention lease
// keeping the log it still needs; one whose read or replay fails, or whose
// digest differs, fences itself and reseeds from the primary. The serving
// layer routes reads to the replicas that are live and within a staleness
// bound, and to the primary when none is (CLI: `multirag serve -data-dir D
// -replicas N -route round-robin|primary-only`). `multirag recover -verify`
// prints the replication position and snapshot digest for offline cross-node
// comparison. `go run ./benchmark` measures a primary and two replicas behind
// the HTTP front door end to end. See DESIGN.md section 11.
//
// The public API wraps the internal modules: adapters (internal/adapter),
// JSON-LD normalisation (internal/jsonld), knowledge-graph storage
// (internal/kg), the line-graph machinery (internal/linegraph), confidence
// computing (internal/confidence) and the MKLGP pipeline (internal/core). The language model is a
// deterministic simulation (internal/llm); see DESIGN.md for the
// substitution rationale.
package multirag
