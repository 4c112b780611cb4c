//go:build layers

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"multirag/benchmark/harness"
	"multirag/benchmark/workload"
	"multirag/internal/core"
	"multirag/internal/linegraph"
	"multirag/internal/retrieval"
)

const (
	// readSample is how many of the workload's own read requests are
	// replayed; writeSample the same for writes (each costs a real commit at
	// three levels). fixedSample is the per-kind sample behind the per-layer
	// medians, which are the same whatever the workload.
	readSample  = 512
	writeSample = 64
	fixedSample = 128
)

// pass is the outside-in replay of one workload. It runs inside the gating
// run, right after the measured phase, against the stack that phase left
// loaded.
type pass struct {
	name string
	p    harness.Phase
	out  *report
	rec  *recorder // the workload's own requests; its kept spans are the trace
	rd   *reader
	wr   *writer
	logf func(format string, args ...any)
}

func replay(name string, p harness.Phase, tempRoot string, out *report, log *os.File) error {
	ps := &pass{name: name, p: p, out: out, rec: newRecorder()}
	ps.logf = func(format string, args ...any) {
		fmt.Fprintf(log, "# %s: layers: %s\n", name, fmt.Sprintf(format, args...))
	}
	if err := p.Stack.Settle(settleTimeout); err != nil {
		return err
	}
	root, err := os.MkdirTemp(tempRoot, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	if err := ps.buildEngines(root); err != nil {
		return err
	}
	readCoverage, overhead, reads, err := ps.ownReads()
	if err != nil {
		return err
	}
	if err := ps.fixedReads(); err != nil {
		return err
	}
	writeCoverage, err := ps.writes(reads)
	if err != nil {
		return err
	}
	if err := ps.wr.recovery(out); err != nil {
		return err
	}
	coverage := readCoverage
	if name == workload.IngestStream {
		coverage = writeCoverage
	}
	out.set("trace.coverage", coverage, "ratio", reads)
	out.set("trace.overhead", overhead, "ratio", reads)
	if err := ps.rec.write(tracePath(tempRoot, name)); err != nil {
		return err
	}
	ps.logf("wrote %d spans to %s", len(ps.rec.spans), tracePath(tempRoot, name))
	return nil
}

// buildEngines builds the two bare engines over the workload's base corpus —
// in-memory for the leaves, durable with checkpointing off for core.ingest —
// and takes the one-shot measurements that need nothing else.
func (ps *pass) buildEngines(root string) error {
	out := ps.out
	base := rawFiles(ps.p.Corpus.Files)
	bare := core.NewSystem(engineConfig())
	if _, err := bare.Ingest(base); err != nil {
		return err
	}
	dir := filepath.Join(root, "dsys")
	dsys, _, err := core.Open(dir, engineConfig())
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := dsys.Ingest(base); err != nil {
		return err
	}
	out.set("core.bulk_ingest_files_s", float64(len(base))/time.Since(start).Seconds(), "1/s", len(base))
	start = time.Now()
	if err := dsys.Checkpoint(); err != nil {
		return err
	}
	out.set("core.checkpoint_ms", ms(time.Since(start)), "ms", 1)
	ckptBytes, err := prefixBytes(dir, "checkpoint-")
	if err != nil {
		return err
	}
	out.set("core.checkpoint_bytes", float64(ckptBytes), "B", 1)
	start = time.Now()
	dsys.SnapshotDigest()
	out.set("core.digest_ms", ms(time.Since(start)), "ms", 1)
	g, _, searcher := bare.Serving()
	start = time.Now()
	linegraph.Build(g)
	out.set("linegraph.build_ms", ms(time.Since(start)), "ms", 1)
	rows := searcher.Len()
	out.set("retrieval.rows_per_scan", float64(rows), "count", 1)
	// Computed, not measured: an append to a capacity-clipped clone copies
	// the whole float32 arena once.
	out.set("retrieval.bytes_copied_per_append", float64(rows*searcher.Dim()*4), "B", 1)

	ps.rd = &reader{st: ps.p.Stack, bare: bare}
	ps.wr = &writer{st: ps.p.Stack, bare: bare, dsys: dsys, dir: dir, root: root, delta: ps.p.Stream.Delta, next: ps.p.NextDelta}
	ps.logf("bare engines built")
	return nil
}

// publish commits one small file to the bare engine, which empties its
// evidence memo: the first ask of every request afterwards is cold.
func (ps *pass) publish() error {
	_, err := ps.rd.bare.Ingest(rawFiles(ps.wr.take()))
	return err
}

// ownReads replays the workload's own read requests at every level (graph
// queries on ingest-stream, which sends none). It returns the trace
// coverage of the reads, the tracing overhead and the number of requests.
func (ps *pass) ownReads() (coverage, overhead float64, n int, err error) {
	stream := ps.p.Stream
	var own [][]string
	switch ps.name {
	case workload.QueryFallback:
		seen := map[string]bool{}
		for i := 0; len(own) < readSample && i < 64*readSample; i++ {
			if t := stream.Fallback(i); !seen[t] {
				seen[t] = true
				own = append(own, []string{t})
			}
		}
	case workload.MixedRW:
		for i := 0; i < readSample/workload.BatchSize; i++ {
			var texts []string
			for _, q := range stream.Batch(i) {
				texts = append(texts, q.Text)
			}
			own = append(own, texts)
		}
	default:
		for i := 0; i < readSample; i++ {
			own = append(own, []string{stream.Graph(i).Text})
		}
	}
	// The same replay with span keeping off, over a quarter of the sample:
	// the difference in client.http is what recording costs.
	plain := newRecorder()
	for i, texts := range own[:len(own)/4] {
		if _, _, err := ps.rd.replay(plain, i, texts); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := ps.publish(); err != nil {
		return 0, 0, 0, err
	}
	rec := ps.rec
	rec.keep = ps.name != workload.IngestStream
	var leafTotals, colds []time.Duration
	for i, texts := range own {
		leaves, cold, err := ps.rd.replay(rec, i, texts)
		if err != nil {
			return 0, 0, 0, err
		}
		leafTotals, colds = append(leafTotals, leaves), append(colds, cold)
	}
	rec.keep = false
	httpUS, _ := rec.medianUS("client.http")
	handlerUS, _ := rec.medianUS("serve.handler")
	askUS, _ := rec.medianUS("core.ask")
	untracedUS, _ := plain.medianUS("client.http")
	ps.out.set("serve.http_self_us", httpUS-handlerUS, "us", len(own))
	ps.out.set("serve.handler_self_us", handlerUS-askUS, "us", len(own))
	ps.logf("read replay done (%d requests)", len(own))
	return float64(medianOf(leafTotals)) / float64(max(medianOf(colds), 1)), httpUS/untracedUS - 1, len(own), nil
}

// fixedReads takes the read-side medians that do not depend on the workload,
// from fixed samples of each query kind.
func (ps *pass) fixedReads() error {
	out, rd, corpus := ps.out, ps.rd, ps.p.Corpus
	bare := rd.bare
	kinds := []struct {
		metric string
		pool   []string
	}{
		{"lookup", graphTexts(corpus, fixedSample, workload.KindLookup)},
		{"bridge", graphTexts(corpus, fixedSample, workload.KindBridge)},
		{"comparison", graphTexts(corpus, fixedSample, workload.KindCompare, workload.KindQACompare)},
		{"fallback", corpus.Fallback[:min(fixedSample, len(corpus.Fallback))]},
	}
	graph := kinds[:3]
	if err := ps.publish(); err != nil {
		return err
	}
	graphQueries := 0
	for _, k := range kinds {
		cold, warm := rd.askTimes(k.pool)
		out.set("core.ask_us."+k.metric, medianUS(warm), "us", len(warm))
		if k.metric != "fallback" {
			out.set("core.ask_cold_us."+k.metric, medianUS(cold), "us", len(cold))
			graphQueries += len(k.pool)
		}
	}
	// Exact counts, over warm asks: model tokens, then history scans over the
	// memo-less leaf pass.
	usage := bare.Model().Usage()
	for _, k := range graph {
		for _, q := range k.pool {
			bare.Query(q)
		}
	}
	spent := bare.Model().Usage()
	out.set("llm.tokens_per_query", float64(spent.PromptTokens+spent.CompletionTokens-usage.PromptTokens-usage.CompletionTokens)/float64(graphQueries), "count", graphQueries)
	fixed := newRecorder()
	scans := bare.MCC().History().Scans()
	for _, k := range graph {
		for _, q := range k.pool {
			rd.leaves(fixed, 0, 0, q)
		}
	}
	out.set("confidence.history_scans_per_query", float64(bare.MCC().History().Scans()-scans)/float64(graphQueries), "count", graphQueries)
	for _, q := range kinds[3].pool {
		rd.leaves(fixed, 0, 0, q)
	}
	for _, leaf := range []struct{ span, metric string }{
		{"llm.parse", "llm.parse_us"}, {"llm.generate", "llm.generate_us"},
		{"linegraph.lookup", "linegraph.lookup_us"}, {"confidence.mcc", "confidence.mcc_us"},
		{"retrieval.embed", "retrieval.embed_us"}, {"retrieval.scan", "retrieval.scan_us"},
	} {
		v, n := fixed.medianUS(leaf.span)
		out.set(leaf.metric, v, "us", n)
	}
	// Embed-cache misses per query over the fallback sequence as sent, with
	// its Zipf repeats, on the served system.
	embeds := retrieval.EmbedCalls()
	for i := 0; i < readSample; i++ {
		ps.p.Stack.Sys.AskEach([]context.Context{nil}, []string{ps.p.Stream.Fallback(i)})
	}
	out.set("retrieval.embed_calls_per_query", float64(retrieval.EmbedCalls()-embeds)/readSample, "count", readSample)
	ps.logf("fixed read samples done")
	return nil
}

// writes replays writeSample write requests at every level and returns the
// trace coverage of the writes. reads is how many serve.handler spans the
// read replay recorded before them.
func (ps *pass) writes(reads int) (coverage float64, err error) {
	out, wr, rec := ps.out, ps.wr, ps.rec
	rec.keep = ps.name == workload.IngestStream || ps.name == workload.MixedRW
	wr.reqBase = reads
	used, totals, err := wr.levels(rec, writeSample, out)
	if err != nil {
		return 0, err
	}
	for r := range totals {
		totals[r] += rec.durs["wal.append"][r]
	}
	rec.keep = false
	// Handler and engine entry point of the same served system, back to back.
	ingestHandler := medianOf(rec.durs["serve.handler"][reads:])
	out.set("serve.ingest_handler_self_us", float64(ingestHandler-medianOf(rec.durs[servedIngest]))/float64(time.Microsecond), "us", writeSample)
	ingestCore := medianOf(rec.durs["core.ingest"][:writeSample])
	out.set("core.ingest_us", medianUS(rec.durs["core.ingest"]), "us", tailRecords)
	for _, leaf := range []struct{ span, metric, unit string }{
		{"core.replica_apply", "core.replica_apply_us", "us"}, {"adapter.fuse", "adapter.fuse_us", "us"},
		{"extract.build.csv", "extract.build_us.csv", "us"}, {"extract.build.json", "extract.build_us.json", "us"},
		{"extract.build.xml", "extract.build_us.xml", "us"}, {"extract.build.kg", "extract.build_us.kg", "us"},
		{"extract.build.text", "extract.build_us.text", "us"},
		{"kg.clone", "kg.clone_us", "us"}, {"kg.replay", "kg.replay_us", "us"}, {"wal.append", "wal.append_us", "us"},
		{"retrieval.clone_append", "retrieval.clone_append_ms", "ms"}, {"linegraph.build_delta", "linegraph.build_delta_ms", "ms"},
	} {
		v, n := rec.medianUS(leaf.span)
		if leaf.unit == "ms" {
			v /= 1000
		}
		out.set(leaf.metric, v, leaf.unit, n)
	}
	extracts := extractTimes(wr.bare.Model(), used)
	out.set("llm.extract_us", medianUS(extracts), "us", len(extracts))
	group, err := wr.groupSize()
	if err != nil {
		return 0, err
	}
	out.set("core.commit_group_size", group, "count", burstRequests)
	ps.logf("write replay done")
	// The bare durable engine has no replicas, so core.replica_apply stays
	// out of the sum its core.ingest is compared with.
	return float64(medianOf(totals)) / float64(max(ingestCore, 1)), nil
}

// graphTexts takes the first n queries of the given kinds, alternating
// between the kinds.
func graphTexts(c *workload.Corpus, n int, kinds ...string) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		pool := c.Graph[kinds[i%len(kinds)]]
		out = append(out, pool[(i/len(kinds))%len(pool)].Text)
	}
	return out
}
