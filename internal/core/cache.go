package core

import (
	"sync"

	"multirag/internal/confidence"
	"multirag/internal/retrieval"
)

// This file holds the per-query evaluation caches. Both are deterministic
// (no dependence on timing or map iteration order; eviction is
// flush-on-overflow rather than LRU) and fully transparent: embeddings are
// pure functions of the text, and the evidence memo stores only
// history-independent evaluations whose deferred history credits are
// replayed on every hit, so answers and confidences are the same with or
// without them.

// embedCacheLimit bounds the query-embedding cache. Embeddings are pure
// functions of (text, dim), so entries never invalidate; the bound only caps
// memory under adversarial query diversity.
const embedCacheLimit = 4096

// embedCache memoises query embeddings. One user query can trigger several
// sub-searches over the same text (multi-hop bridging questions, comparison
// legs, the doc-ranking fill in QueryWithDocs), and benchmark workloads
// repeat query strings; each distinct string is hashed into a vector exactly
// once. The read path is guarded by an RWMutex so concurrent queries hitting
// warm entries share the lock, and the expensive Embed runs outside any lock
// — a racing double-compute produces the identical vector, which is cheaper
// than serialising the hot path.
type embedCache struct {
	dim int
	mu  sync.RWMutex
	m   map[string]retrieval.Vector
}

func newEmbedCache(dim int) *embedCache {
	return &embedCache{dim: dim, m: make(map[string]retrieval.Vector)}
}

// get returns the embedding for q, computing and caching it on first use.
// Cached vectors are immutable by contract: every consumer only reads them.
func (c *embedCache) get(q string) retrieval.Vector {
	c.mu.RLock()
	v, ok := c.m[q]
	c.mu.RUnlock()
	if ok {
		return v
	}
	v = retrieval.Embed(q, c.dim)
	c.mu.Lock()
	if len(c.m) >= embedCacheLimit {
		c.m = make(map[string]retrieval.Vector)
	}
	c.m[q] = v
	c.mu.Unlock()
	return v
}

// evidenceMemoLimit bounds the evidence memo; like the embedding cache it
// flushes wholesale on overflow so eviction stays deterministic.
const evidenceMemoLimit = 8192

// evidenceMemo memoises gatherEvidence outcomes per (entity, relation) key,
// stamped with the snapshot generation that produced them, so the first
// lookup after a publish (ingest commit or SG rebuild) flushes every entry.
// It is always on, because its hits are exact: only history-INDEPENDENT
// evaluations are stored (the homologous fast-path/graph-eliminated
// outcomes, never node-level scoring, isolated authority or the chunk path),
// and each hit replays the
// stored HistoryDelta, reproducing precisely the source-history evolution an
// uncached re-evaluation would have caused. Answers are therefore
// bit-identical with or without it — TestEvidenceMemoTransparent asserts
// this. What a hit saves is the candidate lookup, member resolution,
// graph-confidence recomputation and one Standardize call per repeated
// fan-out sub-question.
type evidenceMemo struct {
	mu  sync.Mutex
	gen uint64
	m   map[string]evidenceEntry
}

// evidenceEntry pairs a memoised evidence set with the deferred history
// credits its evaluation produced. The delta is immutable once stored and is
// shared by reference. The ev/trusted/gcs slices are shared too: consumers
// only read them or append their *elements* into answer slices, never write
// through them (the evidence immutability contract), so hits cost no copy.
// Only stages need cloning — answerLookup hands them wholesale to the
// caller-mutable Answer (see cloneStages).
type evidenceEntry struct {
	e evidence
	d *confidence.HistoryDelta
}

func evidenceKey(entity, relation string) string { return entity + "\x00" + relation }

// cloneStages deep-copies the stage snapshots, the one evidence field that
// escapes by reference into caller-owned Answers: Query hands answers to
// arbitrary user code, and a caller overwriting ans.Stages must not poison
// the memoised copy (or race with other readers of it). Hop and comparison
// arms discard stages, so their memo hits — the hot case — pay nothing here
// beyond the header copy.
func cloneStages(e evidence) evidence {
	stages := append([]StageSnapshot(nil), e.stages...)
	for i := range stages {
		stages[i].Values = append([]string(nil), stages[i].Values...)
	}
	e.stages = stages
	return e
}

// get returns the memoised evidence for (entity, relation) against snapshot
// generation gen, with the history delta the caller must Apply (the hit-side
// replay that keeps the memo exact).
func (c *evidenceMemo) get(gen uint64, entity, relation string) (evidence, *confidence.HistoryDelta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		if gen < c.gen {
			return evidence{}, nil, false // query against an already-replaced snapshot
		}
		c.m, c.gen = nil, gen
		return evidence{}, nil, false
	}
	ent, ok := c.m[evidenceKey(entity, relation)]
	if !ok {
		return evidence{}, nil, false
	}
	return cloneStages(ent.e), ent.d, true
}

// put records one evaluation. Callers only pass history-independent results
// (evidence.memoable); the stored copy is private.
func (c *evidenceMemo) put(gen uint64, entity, relation string, e evidence, d *confidence.HistoryDelta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		if gen < c.gen {
			return // stale snapshot; never poison the newer generation
		}
		c.m, c.gen = nil, gen
	}
	if c.m == nil {
		c.m = make(map[string]evidenceEntry)
	}
	if len(c.m) >= evidenceMemoLimit {
		c.m = make(map[string]evidenceEntry)
	}
	c.m[evidenceKey(entity, relation)] = evidenceEntry{e: cloneStages(e), d: d}
}

// size reports the current entry count (test hook).
func (c *evidenceMemo) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
