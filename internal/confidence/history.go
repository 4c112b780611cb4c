package confidence

import (
	"math"
	"sync"
)

// HistoryStore tracks the per-source historical credibility used by
// Auth_hist(v) (Eq. 11): for each data source D it keeps H, the number of
// entities the source has provided across historical queries, and Prh(D),
// its running historical credibility. The store also counts the entities
// scanned during validation — the dominant cost of the α → 0 regime in
// Fig. 7 — so benchmarks can charge it to the virtual clock.
type HistoryStore struct {
	mu      sync.Mutex
	sources map[string]*sourceHistory
	// initH and initPr seed unseen sources; the paper initialises the
	// number of historical entities to 50.
	initH  int
	initPr float64
	// scans counts historical entities examined by Authority computations.
	scans int
}

type sourceHistory struct {
	h       int     // H: entities provided over all historical queries
	correct float64 // accumulated credibility mass
}

// NewHistoryStore returns a store seeded with the paper's defaults
// (H₀ = 50 historical entities, prior credibility 0.5).
func NewHistoryStore() *HistoryStore {
	return &HistoryStore{sources: map[string]*sourceHistory{}, initH: 50, initPr: 0.5}
}

func (hs *HistoryStore) get(source string) *sourceHistory {
	sh, ok := hs.sources[source]
	if !ok {
		sh = &sourceHistory{h: hs.initH, correct: float64(hs.initH) * hs.initPr}
		hs.sources[source] = sh
	}
	return sh
}

// Historical computes Auth_hist(v) (Eq. 11) for a node served by source,
// given the probability masses Pr(υp) of the source's current query-related
// answers and the total count of query-related data |Data(q, subSG′ᵢ)|:
//
//	Auth_hist = (H·Prh(D) + Σ Pr(υp)) / (H + |Data(q, subSG′ᵢ)|)
//
// effort ∈ [0,1] is the share of the historical record actually validated —
// the 1−α weighting of Eq. 9 determines how much historical evidence the
// retrieval needs; Fig. 7's query time falls as α → 1 precisely because the
// validation workload shrinks. The call charges effort·H scanned entities to
// the validation-cost counter.
func (hs *HistoryStore) Historical(source string, currentPr []float64, queryData int, effort float64) float64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	sh := hs.get(source)
	if effort < 0 {
		effort = 0
	}
	if effort > 1 {
		effort = 1
	}
	hs.scans += int(effort * float64(sh.h))
	var sum float64
	for _, p := range currentPr {
		sum += p
	}
	denom := float64(sh.h + queryData)
	if denom == 0 {
		return hs.initPr
	}
	v := (float64(sh.h)*hs.prh0(sh) + sum) / denom
	return clamp01(v)
}

// prh0 is sh's stored credibility: its credibility mass per unit of history
// size, or initPr when it has no history.
func (hs *HistoryStore) prh0(sh *sourceHistory) float64 {
	if sh.h == 0 {
		return hs.initPr
	}
	return sh.correct / float64(sh.h)
}

// HistoryDelta is a deferred batch of incremental-estimation updates: the
// per-source acceptance credits of one MCC evaluation. Parallel query arms
// each accumulate their own delta against a frozen history view and the
// executor applies them in input order after the join, so the final history
// state — and every confidence score computed along the way — is independent
// of scheduling. Updates are commutative (pure counter increments), which is
// what makes the in-order replay exact.
type HistoryDelta struct {
	entries []histCredit
}

// histCredit is one source's outcome for one candidate subgraph.
type histCredit struct {
	source             string
	provided, accepted int
}

// Apply replays the recorded credits onto hs. A nil delta is a no-op.
func (hs *HistoryStore) Apply(d *HistoryDelta) {
	if d == nil {
		return
	}
	for _, c := range d.entries {
		hs.Update(c.source, c.provided, c.accepted)
	}
}

// Update performs the incremental estimation step after a query: the source
// provided `provided` entities of which `accepted` survived confidence
// filtering. Acceptance is treated as the online proxy for correctness.
func (hs *HistoryStore) Update(source string, provided, accepted int) {
	if provided <= 0 {
		return
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	sh := hs.get(source)
	sh.h += provided
	sh.correct += float64(accepted)
}

// Scans returns the total historical entities examined so far (virtual-cost
// accounting for Fig. 7) .
func (hs *HistoryStore) Scans() int {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.scans
}

// ResetScans clears the validation-cost counter.
func (hs *HistoryStore) ResetScans() {
	hs.mu.Lock()
	hs.scans = 0
	hs.mu.Unlock()
}

// Sigmoid implements Eq. (10)'s logistic squashing with steepness β applied
// to a centred score: Auth_LLM(v) = 1 / (1 + e^(−β·c)). The paper centres
// C_LLM(v) on the mean over all candidate nodes; callers pass c already
// centred.
func Sigmoid(beta, c float64) float64 {
	return 1 / (1 + math.Exp(-beta*c))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
