GO ?= go
BENCH_SCALE ?= 0.12
BENCHTIME ?= 1s

.PHONY: check vet build test race chaos chaos-cluster fuzz-smoke layers bench bench-micro bench-retrieval bench-graph bench-query bench-ingest bench-serve bench-wal bench-cluster clean

# check is the CI entry point: static analysis, full build, race-enabled
# tests, and a short fuzz pass over the crash-surface decoders.
check: vet build race fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection grid under the race detector: named
# injection points (LLM calls, evidence gathering, retrieval scans, commit,
# WAL append, batch execution) crossed with fault kinds (latency, error,
# hang-until-cancel, panic) over concurrent query + ingest load, asserting no
# deadlock, no goroutine leak, no torn snapshot and byte-identical WAL
# recovery. -count=1 keeps it uncached so CI always exercises the grid.
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/core ./internal/serve ./internal/fault

# chaos-cluster runs the replication chaos suite under the race detector:
# kill/hang/corrupt one of three WAL-fed read replicas under concurrent query
# + ingest load, asserting the router sheds to survivors, every served answer
# stays bit-identical to a single-engine reference, and the fenced replica
# resyncs back to byte-identical state.
chaos-cluster:
	$(GO) test -race -count=1 -run '^TestChaosCluster' ./internal/cluster ./internal/serve

# fuzz-smoke runs each committed fuzz target briefly on top of its seed
# corpus: the WAL frame parser and field decoder — the code recovery walks
# over whatever a crash left on disk — the WAL group record and checkpoint
# body decoders behind them (both formats, and the replica doors that take
# the same bytes from a peer), and the JSON-LD parser every adapter output
# passes through — plus the allocation-free text primitives held to the forms
# they replace: SameNormalized against NormalizeValue equality, and Hash64 /
# SeededHash01 against hash/fnv and the fmt-built seeded key.
fuzz-smoke:
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzFrameParse -fuzztime 5s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecoder -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRecoveredPayload -fuzztime 5s
	$(GO) test ./internal/jsonld -run '^$$' -fuzz FuzzDocumentUnmarshal -fuzztime 5s
	$(GO) test ./internal/textutil -run '^$$' -fuzz FuzzSameNormalized -fuzztime 5s
	$(GO) test ./internal/textutil -run '^$$' -fuzz FuzzHash64 -fuzztime 5s

# layers builds and tests the benchmark's per-layer pass, which lives behind
# the `layers` build tag and calls internal packages directly: an internal
# signature change that breaks it must fail here, not at the next
# `go run ./benchmark -trace 1`. Read-only use of benchmark/.
layers:
	$(GO) vet -tags layers ./benchmark/...
	$(GO) test -tags layers ./benchmark/layers

# bench-micro runs the testing.B micro-benchmarks with -benchmem: the write
# path's kernels at the end-to-end corpus size — one commit's clone + 4-row
# append on a 34,549 x 256 store, one encode and one decode of that store's
# checkpoint form (datasets text), one commit's clone + 11-triple replay on a
# 67,100-triple graph (linear history and re-cloned parent), the first write
# to a shared column page, one streamed snapshot digest and one replica seeded
# from that snapshot's checkpoint body (its B/op and allocs/op are the size of
# one engine copy) — and the query path's two: one exact top-5 search at up to 34,549 rows (dense full-sort
# reference vs the term-at-a-time scan) and MCC.Run over one disagreeing group
# (2-16 members, all or a quarter of them distinct, expert model included),
# whose B/op and allocs/op grow with the distinct values, not with member
# pairs. B/op is the tracked number. BENCHTIME=1x makes it a smoke run.
bench-micro:
	$(GO) test -run '^$$' -bench '^Benchmark(CommitAppend|Search|EncodeStore|DecodeStore)$$' -benchmem -benchtime $(BENCHTIME) ./internal/retrieval
	$(GO) test -run '^$$' -bench '^Benchmark(GraphCommitAppend|COWPagePrivatize)$$' -benchmem -benchtime $(BENCHTIME) ./internal/kg
	$(GO) test -run '^$$' -bench '^Benchmark(SnapshotDigest|SeedReplica)$$' -benchmem -benchtime $(BENCHTIME) ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkMCCRunConflict$$' -benchmem -benchtime $(BENCHTIME) ./internal/confidence

# bench regenerates the paper tables/figures at a reduced scale and records
# per-job wall-clock timings for the perf trajectory.
bench:
	$(GO) run ./cmd/benchtables -scale $(BENCH_SCALE) -json BENCH_core.json

# bench-retrieval runs the retrieval-layer microbenchmarks (dense full-sort
# and dense top-k references vs the term-at-a-time scan, on a 20-word
# vocabulary and on datasets-generated chunks) at the configured scale and
# records the timing report.
bench-retrieval:
	$(GO) run ./cmd/benchtables -retrieval -scale $(BENCH_SCALE) -json BENCH_retrieval.json

# bench-graph runs the graph-core microbenchmarks (seed deep-clone vs
# copy-on-write columnar clone, nested-map vs sort-merge line-graph build)
# and records the timing report.
bench-graph:
	$(GO) run ./cmd/benchtables -graph -scale $(BENCH_SCALE) -json BENCH_graph.json

# bench-query runs the query-executor microbenchmarks (sequential
# scan-per-subquestion reference vs the parallel index-backed executor over
# lookup / multi-hop / comparison / fallback mixes, equivalence-checked) and
# records the timing report.
bench-query:
	$(GO) run ./cmd/benchtables -query -scale $(BENCH_SCALE) -json BENCH_query.json

# bench-ingest runs the ingest-throughput microbenchmarks (serialized
# whole-call-locked baseline vs the pipelined group-committing ingest, over a
# producers x corpus-size grid, equivalence-checked) and records the timing
# report.
bench-ingest:
	$(GO) run ./cmd/benchtables -ingest -scale $(BENCH_SCALE) -json BENCH_ingest.json

# bench-serve runs the HTTP serving-layer benchmark (two-SLO-class closed-loop
# load through the front door under each batch-formation policy: fcfs / sjf /
# priority, with admission-rejection accounting on the rate-limited class) and
# records per-class tail latencies plus Jain fairness.
bench-serve:
	$(GO) run ./cmd/benchtables -serve -scale $(BENCH_SCALE) -json BENCH_serve.json

# bench-wal runs the WAL durability benchmarks: ingest throughput with the
# write-ahead log + fsync on vs off (the durability tax must stay >= 0.6x
# in-memory at 4 producers), crash-recovery replay time vs log length
# (including a 10k-record log, which must replay in under 5s), and
# checkpoint size/write time. Recovery and checkpoint cells run at full
# scale regardless of BENCH_SCALE — the 10k-record bar is the point.
bench-wal:
	$(GO) run ./cmd/benchtables -wal -scale $(BENCH_SCALE) -json BENCH_wal.json

# bench-cluster runs the replicated-read benchmark: a replica-count sweep
# (0/1/2/4 WAL-fed read replicas behind the HTTP front door) measuring read
# throughput, hedged vs unhedged p99, and failover time-to-drain when the
# replica query path hard-fails.
bench-cluster:
	$(GO) run ./cmd/benchtables -cluster -scale $(BENCH_SCALE) -json BENCH_cluster.json

clean:
	rm -f BENCH_core.json BENCH_retrieval.json BENCH_graph.json BENCH_query.json BENCH_ingest.json BENCH_serve.json BENCH_wal.json BENCH_cluster.json
