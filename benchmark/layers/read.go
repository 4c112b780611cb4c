//go:build layers

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"multirag/benchmark/harness"
	"multirag/internal/confidence"
	"multirag/internal/core"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
)

// reader replays read requests level by level: the loopback round trip and
// the handler on the served stack, core.ask on its System, and the leaves on
// a bare core.System built from the same files, which is what gives access
// to Serving(), MCC() and Model().
type reader struct {
	st   *harness.Stack
	bare *core.System
}

// replay runs one read request (one query, or a batch) at every level and
// returns the time its leaves took together and the time of a first, cold
// ask of it on the bare system.
func (rd *reader) replay(rec *recorder, req int, texts []string) (leaves, cold time.Duration, err error) {
	r := harness.QueryRequest(texts[0])
	if len(texts) > 1 {
		r = harness.BatchRequest(texts)
	}
	start := time.Now()
	var raw json.RawMessage
	lat, err := rd.st.Do(r, &raw)
	if err != nil {
		return 0, 0, err
	}
	httpID := rec.add(0, req, "client.http", start, lat)

	hr := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
	w := httptest.NewRecorder()
	handlerID := rec.timed(httpID, req, "serve.handler", func() { rd.st.Srv.Handler().ServeHTTP(w, hr) })
	if w.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("handler replay of %s: HTTP %d", r.Path, w.Code)
	}

	ctxs := make([]context.Context, len(texts))
	askID := rec.timed(handlerID, req, "core.ask", func() { rd.st.Sys.AskEach(ctxs, texts) })

	start = time.Now()
	rd.bare.QueryEach(ctxs, texts)
	cold = time.Since(start)
	rec.add(handlerID, req, "core.ask_cold", start, cold)

	for _, q := range texts {
		leaves += rd.leaves(rec, askID, req, q)
	}
	return leaves, cold, nil
}

// leaves re-enacts core's query path for q against the bare system's
// snapshot, timing each call into a layer. It follows query.go: parse, then
// per (entity, relation) sub-question a line-graph lookup and MCC, then
// answer generation; unparsed text takes embed, scan, generate. The evidence
// memo is bypassed on purpose — this is the work a cold ask does.
func (rd *reader) leaves(rec *recorder, parent, req int, q string) time.Duration {
	model, mcc := rd.bare.Model(), rd.bare.MCC()
	_, sg, index := rd.bare.Serving()
	var total time.Duration
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		d := time.Since(start)
		total += d
		rec.add(parent, req, name, start, d)
	}

	gather := func(entity, relation string) []llm.Evidence {
		subj := kg.CanonicalID(model.Standardize(entity))
		var cands []*linegraph.HomologousNode
		timed("linegraph.lookup", func() {
			if n, ok := sg.Lookup(subj, relation); ok {
				cands = append(cands, n)
			}
			cands = append(cands, sg.NestedCandidates(subj, relation)...)
			sort.Slice(cands, func(i, j int) bool { return cands[i].Key < cands[j].Key })
		})
		var ev []llm.Evidence
		if len(cands) > 0 {
			timed("confidence.mcc", func() {
				res, _ := mcc.RunDeferred(sg, cands, confidence.Options{})
				for _, tn := range res.SVs {
					ev = append(ev, llm.Evidence{Value: tn.Triple.Object, Weight: tn.Confidence, Source: tn.Triple.Source, Verified: tn.Verified})
				}
			})
		} else if t, ok := sg.LookupIsolated(subj, relation); ok {
			timed("confidence.mcc", func() {
				tn := mcc.AssessIsolated(sg, t, confidence.Options{})
				ev = []llm.Evidence{{Value: t.Object, Weight: tn.Confidence, Source: t.Source, Verified: tn.Verified}}
			})
		}
		return ev
	}
	generate := func(question string, ev []llm.Evidence) []string {
		var vals []string
		if len(ev) > 0 {
			timed("llm.generate", func() { vals = model.GenerateAnswer(question, ev) })
		}
		return vals
	}
	subQ := func(relation, entity string) string {
		return "What is the " + strings.ReplaceAll(relation, "_", " ") + " of " + entity + "?"
	}

	var lf llm.LogicForm
	timed("llm.parse", func() { lf = model.ParseQuery(q) })
	switch {
	case lf.Intent == "multi_hop" && len(lf.Entities) > 0 && len(lf.Relations) > 1:
		hop1 := subQ(lf.Relations[0], lf.Entities[0])
		var ev2 []llm.Evidence
		for _, bridge := range generate(hop1, gather(lf.Entities[0], lf.Relations[0])) {
			ev2 = append(ev2, gather(bridge, lf.Relations[1])...)
		}
		generate(q, ev2)
	case lf.Intent == "comparison" && len(lf.Entities) > 1 && len(lf.Relations) > 0:
		for _, e := range lf.Entities[:2] {
			generate(subQ(lf.Relations[0], e), gather(e, lf.Relations[0]))
		}
	case len(lf.Entities) > 0 && len(lf.Relations) > 0:
		generate(q, gather(lf.Entities[0], lf.Relations[0]))
	default:
		var qv retrieval.Vector
		timed("retrieval.embed", func() { qv = retrieval.Embed(q, index.Dim()) })
		var hits []retrieval.Hit
		timed("retrieval.scan", func() { hits = index.SearchVector(qv, 5, nil) })
		ev := make([]llm.Evidence, len(hits))
		for i, h := range hits {
			ev[i] = llm.Evidence{Value: h.Chunk.Text, Weight: h.Score, Source: h.Chunk.Source}
		}
		generate(q, ev)
	}
	return total
}

// askTimes asks each query twice on the bare system, right after a publish
// has emptied the evidence memo: the first ask is cold, the second warm.
func (rd *reader) askTimes(queries []string) (cold, warm []time.Duration) {
	for _, q := range queries {
		start := time.Now()
		rd.bare.Query(q)
		cold = append(cold, time.Since(start))
		start = time.Now()
		rd.bare.Query(q)
		warm = append(warm, time.Since(start))
	}
	return cold, warm
}
