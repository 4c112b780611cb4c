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
// history-independent evaluations — whole outcomes whose deferred history
// credits are replayed on every hit, or the history-independent half of one
// whose history-dependent half is recomputed on every hit — so answers and
// confidences are the same with or without them. Entries of both caches are
// shared, read-only values: a hit hands them out without a copy.

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

// evidenceMemo memoises gatherEvidence evaluations per (entity, relation)
// key, stamped with the snapshot generation that produced them, so the first
// lookup after a publish (ingest commit or SG rebuild) flushes every entry.
// It is always on, because its hits are exact. An entry is one of two kinds:
//
//   - complete: a history-independent outcome (fast-path, graph-eliminated
//     or ablated pass-through groups only) with its deferred HistoryDelta. A
//     hit replays the stored delta, reproducing precisely the source-history
//     evolution an uncached re-evaluation would have caused.
//   - partial: a key whose outcome reads source history — a group with a
//     node-scored candidate, or an isolated point. It stores only the
//     history-independent half MCC prepared (members, C(G), routes, Sₙ and
//     the expert's graph inputs). A hit runs MCC's finish half against the
//     history as it stands — the expert's JudgeAuthority per scored member,
//     Auth_hist, θ, the promotion rule and the HistoryDelta — and builds
//     the evidence from its result, as a miss does.
//
// Answers are therefore bit-identical with or without the memo —
// TestEvidenceMemoTransparent asserts this. Either kind of hit saves the
// subject's Standardize call, the candidate lookup and sort, member
// resolution, the similarity matrix and C(G); a partial hit also saves the
// expert's graph inputs (degree, type weight, TwoHopPathSupport) per member.
// The chunk path is never memoised.
type evidenceMemo struct {
	mu  sync.Mutex
	gen uint64
	m   map[string]evidenceEntry
}

// evidenceEntry is one memoised evaluation. A complete entry pairs the
// evidence set with the deferred history credits its evaluation produced; a
// partial entry holds only group or point, the prepared half of MCC. The
// delta and the prepared halves are immutable once stored and are shared by
// reference. The evidence's slices are shared too: consumers only read them
// or append their *elements* into answer slices, never write through them
// (the evidence immutability contract), so neither get nor put copies.
type evidenceEntry struct {
	e     evidence
	d     *confidence.HistoryDelta
	group *confidence.Prepared
	point *confidence.PreparedPoint
}

func evidenceKey(entity, relation string) string { return entity + "\x00" + relation }

// get returns the memoised entry for (entity, relation) against snapshot
// generation gen. A complete entry's delta is the caller's to Apply (the
// hit-side replay that keeps the memo exact); a partial entry is the
// caller's to finish.
func (c *evidenceMemo) get(gen uint64, entity, relation string) (evidenceEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		if gen < c.gen {
			return evidenceEntry{}, false // query against an already-replaced snapshot
		}
		c.m, c.gen = nil, gen
		return evidenceEntry{}, false
	}
	ent, ok := c.m[evidenceKey(entity, relation)]
	return ent, ok
}

// put records one evaluation: a complete entry only for a history-independent
// outcome, else a partial one.
func (c *evidenceMemo) put(gen uint64, entity, relation string, ent evidenceEntry) {
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
	c.m[evidenceKey(entity, relation)] = ent
}
