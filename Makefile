GO ?= go
BENCH_SCALE ?= 0.12
BENCHTIME ?= 1s
SCALE ?= 1
SEED ?= 1
PAIRS ?= 5
WORKLOADS ?= query-graph query-fallback ingest-stream mixed-rw

.PHONY: check fmt vet build test race ceilings chaos chaos-cluster fuzz-smoke layers bench bench-micro paper-diff ab size clean

# check is the CI entry point: formatting, static analysis, full build,
# race-enabled tests, the allocation and heap ceilings the race build skips, a
# short fuzz pass over the crash-surface decoders, and the benchmark's
# per-layer pass, which breaks when an internal API it calls changes.
check: fmt vet build race ceilings fuzz-smoke layers

# fmt fails when any file is not gofmt-formatted (it lists them).
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ceilings runs, without the race detector, the tests that skip under -race
# because its instrumentation changes what they count: the allocation
# ceilings (objects per served query, per memo hit, per parsed query, per
# extracted chunk, per stored-embedding read, per fallback answer, per
# replayed vector, per prepared file, per record a fused file holds in each
# format, per triple a commit and a replica's
# apply replay, and the bytes a replica seeded beside its primary
# allocates per triple) and the heap one engine copy retains per triple,
# decoded from a checkpoint body, and a replica seeded beside its primary —
# a copy-on-write clone of the primary's snapshot — retains per triple; the
# heap a prepared bulk load retains per byte of its WAL parts; the heap a
# system retains per byte of a hostile ingest request (root package); the
# bytes one commit allocates, on the primary and on a replica's apply, over a
# 1x and a 4x corpus (factor 1.25), and along a 600-commit linear history of
# the graph alone, its last commits against its first (1.25; `CommitBytes`
# matches both); and, beside them, the chunks such a clone embeds: none,
# seeded or forking on its first apply.
ceilings:
	$(GO) test -count=1 -run 'AllocCeiling|ReplayPostsStoredVectors|EngineCopyBytes|EmbedsNothing|RetainedBytes|CommitBytes' . ./internal/...

# chaos runs the fault-injection grid under the race detector: named
# injection points (LLM calls, evidence gathering, retrieval scans, commit,
# WAL append, batch execution) crossed with fault kinds (latency, error,
# hang-until-cancel, panic) over concurrent query + ingest load, asserting no
# deadlock, no goroutine leak, no torn snapshot and byte-identical WAL
# recovery. -count=1 keeps it uncached so CI always exercises the grid. The
# suites live in internal/core and internal/serve; internal/fault's own unit
# tests (injection) have no TestChaos prefix and run under `race`.
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/core ./internal/serve

# chaos-cluster runs the replication chaos suite under the race detector:
# kill/stall/corrupt one of three read replicas of a durable primary under
# concurrent query + ingest load, asserting the router sheds to survivors,
# every served answer stays bit-identical to a single-engine reference, the
# stalled replica catches up from the primary's log across two checkpoints,
# and the fenced replica resyncs back to byte-identical state. The replica
# set lives in the root package, the router in internal/serve.
chaos-cluster:
	$(GO) test -race -count=1 -run '^TestChaosCluster' . ./internal/serve

# fuzz-smoke runs each committed fuzz target briefly on top of its seed
# corpus: the WAL frame parser and field decoder — the code recovery walks
# over whatever a crash left on disk, and replicas' log cursor over the
# primary's segments; the decoder's front-coded string read is held to an
# oracle that rebuilds the previous value's prefix plus the suffix — the WAL
# group record and checkpoint body decoders behind them (and the replica
# doors that take the same bytes from a peer; seeded with records and bodies
# in format 4, which decode, and formats 1–3, which must be rejected) —
# plus the allocation-free text primitives held to the forms they replace:
# stage 1's chunk renderer against the string-building one it replaced, on
# records of fuzzed keys and values; SameNormalized / CompareNormalized /
# SameLower against comparisons of the built strings, Tokenize /
# NormalizeValue / AppendNormalizeValue / StandardizeName / NormalizeRelation
# / HashAddNormalized against the tokenise-filter-join oracles, and Hash64 / SeededHash01 against hash/fnv and
# the fmt-built seeded key — the simulated LLM's hand-written grammars against
# the regexps they replace (ParseQuery's logic forms, ExtractEntities'
# mentions and ExtractTriples' triples on arbitrary text), and the front
# door's JSON request decoders, whose arbitrary bodies must get a 200 or a
# typed rejection, never a panic or a 500, and whose rejections' bodies must
# stay within 512 bytes, quoting only bounded excerpts of the request — and
# stage 1's format adapters against the tree-building parsers they replaced
# (encoding/json into interface{} printed with fmt.Sprint, xml.Unmarshal into
# a reflective node tree, csv.ReadAll, strings.Split, documents set one
# property at a time): each content parsed as every format must fail on both
# sides or give the same records, properties in order.
fuzz-smoke:
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzFrameParse -fuzztime 5s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecoder -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRecoveredPayload -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRenderChunks -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzServeRequest -fuzztime 5s
	$(GO) test ./internal/textutil -run '^$$' -fuzz FuzzSameNormalized -fuzztime 5s
	$(GO) test ./internal/textutil -run '^$$' -fuzz FuzzNormalForms -fuzztime 5s
	$(GO) test ./internal/textutil -run '^$$' -fuzz FuzzHash64 -fuzztime 5s
	$(GO) test ./internal/llm -run '^$$' -fuzz FuzzParseQuery -fuzztime 5s
	$(GO) test ./internal/llm -run '^$$' -fuzz FuzzExtract -fuzztime 5s
	$(GO) test ./internal/adapter -run '^$$' -fuzz FuzzAdaptersMatchOracle -fuzztime 5s

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
# checkpoint form (datasets text; chunk strings only, so the decode includes
# re-embedding every chunk on GOMAXPROCS workers), one commit's clone +
# 11-triple replay on a 67,100-triple graph (linear history, whose claimant
# appends into the shared tail pages, page tables and lists in place: a flat
# ~21 KB/op and 36-46 allocs/op at -benchtime 100x, 500x and 4000x, where it
# read 64, 156 and 192 KB while the key index was an overlay map whose
# unflattened tail every clone copied; and a re-cloned parent, which forks:
# 65 allocs and 74 KB/op at any -benchtime, the 32 KiB page of triples and
# the page tables it writes copied once, 64 KB while every clone copied the
# tables; 69-75 allocs, 75/167/203 KB and 75 allocs/37 KB while each triple
# was a heap object of its own), the first write to a shared column page, one streamed snapshot
# digest and one replica seeded from that snapshot, both ways
# (/standalone decodes its checkpoint body, as recovery does: the graph, the
# store's posting lists with every chunk re-embedded into transient slabs and
# the line-graph build, so its B/op and allocs/op are the size of one engine
# copy plus the decoder's transient tables and its live-MB, the heap the
# seeded copy retains after a collection, what TestEngineCopyBytesCeiling
# bounds per triple on the datasets corpus; /beside-primary clones the
# primary's published snapshot, as a replica set seeds: the posting columns'
# page tables, lookup overlays and a line-graph view, embedding nothing, its live-MB and B/op what
# TestEngineCopyBytesBesidePrimaryCeiling and TestSeedReplicaAllocCeiling
# bound; /first-apply is such a clone's first applied record, where it loses
# the lineage claim to the primary and forks, copying the chunk slice and
# each posting list, page and lookup entry the record writes), and the bulk
# load a deployment pays at set-up (the datasets presets as one Ingest into a
# durable system: stage 1 and the commit, split as prepare-ms/op and
# commit-ms/op, and the size of its WAL record as record-bytes; ~0.57 M
# allocs/op since stage 1 renders each file's chunks into its pooled scratch,
# 1.23 M while every sentence, chunk and ID was a string of its own) — and
# the query path's: one exact
# top-5 search at up to 34,549 rows (dense full-sort reference vs the
# term-at-a-time scan) and its two passes alone on the datasets store (one
# query's accumulation over the posting lists, 0 allocs, and the top-k
# selection over its 34,549 scores at k=5 and k=100, one object: the hits),
# MCC.RunDeferred over one disagreeing group with its history delta applied
# (2-16 members, all or a quarter of them distinct, expert model included),
# whose B/op and allocs/op grow with the distinct values, not with member
# pairs, and its history-dependent finish alone (/finish: six objects at any
# size), and one gatherEvidence sub-question as a complete memo hit (0 allocs:
# the entry is shared, not copied), a partial hit on a conflicting key (8) and
# a miss on it (31), and one chunk-fallback query
# (AnswerFallback: 4 allocs) — and the read side's text and vector kernels:
# NormalizeValue / StandardizeName on an already-normal value (0 allocs), a
# short surface form and a ~1 KB chunk (1 alloc each), NewDist over a value's
# and a chunk's tokens, and Embed of a query and of a chunk — and the simulated LLM's text layer, which
# allocates only its results: ParseQuery per grammar and on free text (1
# object, 2 with a two-word relation), NER plus SPO extraction over one chunk
# (3), and GenerateAnswer over three short graph values and over five chunk
# texts (the result alone) — and the front door: one /v1/query through
# Handler().ServeHTTP on the case-study corpus on an idle server, whose
# allocs/op are the serve layer's objects per request plus the engine's, and
# the same from four goroutines per GOMAXPROCS on a saturated one, where
# requests wait for a slot — and stage 1's format adapters: every datasets
# file of one format (all presets, seed 1) fused per op, one sub-benchmark a
# format (csv, json, xml, kg, text), whose allocs/op are a few per file
# beyond encoding/csv's string per row and encoding/xml's objects per token.
# B/op is the tracked number. BENCHTIME=1x makes it a smoke run.
bench-micro:
	$(GO) test -run '^$$' -bench '^Benchmark(CommitAppend|Search|EncodeStore|DecodeStore|Embed|Accumulate|TopK)$$' -benchmem -benchtime $(BENCHTIME) ./internal/retrieval
	$(GO) test -run '^$$' -bench '^Benchmark(GraphCommitAppend|COWPagePrivatize)$$' -benchmem -benchtime $(BENCHTIME) ./internal/kg
	$(GO) test -run '^$$' -bench '^Benchmark(SnapshotDigest|SeedReplica|BulkIngest|GatherEvidence|AnswerFallback)$$' -benchmem -benchtime $(BENCHTIME) ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkMCCRunConflict$$' -benchmem -benchtime $(BENCHTIME) ./internal/confidence
	$(GO) test -run '^$$' -bench '^Benchmark(NormalForms|NewDist)$$' -benchmem -benchtime $(BENCHTIME) ./internal/textutil
	$(GO) test -run '^$$' -bench '^Benchmark(ParseQuery|ExtractChunk|GenerateAnswer)$$' -benchmem -benchtime $(BENCHTIME) ./internal/llm
	$(GO) test -run '^$$' -bench '^BenchmarkServe(Query|Saturated)$$' -benchmem -benchtime $(BENCHTIME) ./internal/serve
	$(GO) test -run '^$$' -bench '^BenchmarkFuse$$' -benchmem -benchtime $(BENCHTIME) ./internal/adapter

# bench regenerates the paper tables/figures at a reduced scale and records
# per-job wall-clock timings for the perf trajectory. That per-job wall time
# is the only real-time number: every time cell inside the tables is the
# cost model's priced sum, the same on any machine.
bench:
	$(GO) run ./cmd/benchtables -scale $(BENCH_SCALE) -json BENCH_core.json

# paper-diff checks that the paper tables and figures are unchanged against
# the git revision BASE: it builds cmd/benchtables from a copy of BASE
# (git archive, so no worktree is left registered if the run is cut) and from
# the working tree, runs both at SCALE and SEED, prints the sha256 of each
# stdout and fails, showing the first differing lines, if they differ. Stdout
# carries no wall-clock time (the per-job timings go to stderr), so equal
# tables print equal bytes. The copy is removed on exit.
paper-diff:
	@test -n "$(BASE)" || { echo 'usage: make paper-diff BASE=<rev> [SCALE=1] [SEED=1]'; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/base" && \
	git archive "$(BASE)" | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/benchtables-base" ./cmd/benchtables) && \
	$(GO) build -o "$$tmp/benchtables-tree" ./cmd/benchtables && \
	"$$tmp/benchtables-base" -scale $(SCALE) -seed $(SEED) > "$$tmp/base.txt" && \
	"$$tmp/benchtables-tree" -scale $(SCALE) -seed $(SEED) > "$$tmp/tree.txt" && \
	echo "$(BASE) stdout sha256:      $$(sha256sum < "$$tmp/base.txt" | cut -d' ' -f1)" && \
	echo "working tree stdout sha256: $$(sha256sum < "$$tmp/tree.txt" | cut -d' ' -f1)" && \
	{ cmp -s "$$tmp/base.txt" "$$tmp/tree.txt" || { diff "$$tmp/base.txt" "$$tmp/tree.txt" | head -40; exit 1; }; }

# ab compares the end-to-end benchmark at the git revision BASE with the
# working tree: it builds ./benchmark from a copy of BASE (git archive, as
# paper-diff does) and from the working tree, then runs PAIRS pairs of each
# workload in WORKLOADS at SEED, for the benchmark's own run length,
# alternating which build runs first from pair to pair, from a scratch
# directory so no run writes to the tree. A run whose last line is not a
# result stops the comparison at once, naming the pair, workload and build and
# showing the end of that run's stderr. cmd/benchab then prints, per workload,
# each gated metric's base and change median [IQR], the change of the
# medians, wins out of PAIRS and the bound, read from BASE's BENCHMARK.json so
# a change cannot move its own bounds, and fails if a run failed its
# correctness gate or a median is outside its bound. A run takes ~15-30 s:
# the default, 5 pairs of 4 workloads, ~20 min. The copy, builds and runs are
# removed on exit.
ab:
	@test -n "$(BASE)" || { echo 'usage: make ab BASE=<rev> [PAIRS=5] [WORKLOADS="ingest-stream mixed-rw"] [SEED=1]'; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/base" "$$tmp/run" && \
	git archive "$(BASE)" | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/bench-base" ./benchmark) && \
	$(GO) build -o "$$tmp/bench-change" ./benchmark && \
	$(GO) build -o "$$tmp/benchab" ./cmd/benchab && \
	for i in $$(seq $(PAIRS)); do \
		for w in $(WORKLOADS); do \
			if [ $$((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
			for b in $$order; do \
				echo "# pair $$i/$(PAIRS) $$w: $$b" >&2; \
				err="$$tmp/$$b.$$w.$$i.err"; \
				line=$$(cd "$$tmp/run" && "$$tmp/bench-$$b" -workload $$w -seed $(SEED) 2>"$$err" | tail -n 1); \
				case "$$line" in \
				"{"*) echo "$$w $$line" >> "$$tmp/$$b.runs" ;; \
				*) echo "make ab: pair $$i, workload $$w, build $$b printed no result; its stderr ends:" >&2; tail -n 20 "$$err" >&2; exit 1 ;; \
				esac; \
			done; \
		done; \
	done && \
	"$$tmp/benchab" "$$tmp/base/BENCHMARK.json" "$$tmp/base.runs" "$$tmp/change.runs"

# size prints the two code-size counts the shrink passes track: non-test Go
# lines and flag definitions under cmd/. It reports and gates nothing.
size:
	@printf 'non-test Go lines:     '; find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'cmd/ flag definitions: '; grep -rhoE '\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Func|BoolFunc|TextVar|Var)(Var)?\(' cmd --include=*.go | wc -l

clean:
	rm -f BENCH_core.json
