package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"multirag"
	"multirag/internal/fault"
)

// Read routing policies (Config.Route).
const (
	// RouteRoundRobin spreads batches across eligible replicas in turn.
	RouteRoundRobin = "round-robin"
	// RoutePrimaryOnly sends every batch to the primary; replicas only follow
	// its log (a warm-standby layout).
	RoutePrimaryOnly = "primary-only"
)

// DefaultMaxLag is the bounded-staleness default: a replica more than this
// many commits behind the primary is ineligible until it catches up.
const DefaultMaxLag = 256

// defaultHedgeProbeTimeout bounds a router health probe.
const defaultHedgeProbeTimeout = time.Second

// errHedgeLost is the breaker strike recorded against a replica whose answer
// lost a hedged race — a latency failure, not a correctness one, but enough
// consecutive losses drain the replica until a probe re-admits it.
var errHedgeLost = errors.New("serve: hedged read lost the race")

// errReplicaDegraded classifies a batch whose answers degraded for an
// engine-side reason (not the request's own deadline or disconnect).
var errReplicaDegraded = errors.New("serve: replica returned degraded answers")

// router spreads query batches across a replica set, gated per replica by
// health (live state + a circuit breaker) and bounded staleness, with
// optional hedged dispatch. Replication keeps replicas byte-identical to the
// primary, so routing is invisible in answer values; the router's job is
// purely availability and tail latency:
//
//   - Eligibility: a replica serves only while live (following the log), its
//     breaker is closed, and it is within MaxLag commits of the primary.
//   - Failover: batches fall back to the primary when no replica is eligible
//     or the picked replica fails mid-flight; an erroring replica's breaker
//     trips after consecutive failures and a background probe (single-flight,
//     via fault.PointClusterProbe) re-admits it once healthy.
//   - Hedging: when HedgeAfter > 0, a batch still unanswered after that delay
//     is dispatched again to a second target; the first answer wins and the
//     loser's work is canceled through per-request merged contexts. A replica
//     that loses the race takes a breaker strike, so a consistently slow
//     replica drains instead of dragging the tail forever.
type router struct {
	sys        *multirag.System
	set        *multirag.ReplicaSet
	route      string
	hedgeAfter time.Duration
	maxLag     uint64
	targets    []*target
	rr         atomic.Uint64

	primaryBatches atomic.Uint64
	replicaBatches atomic.Uint64
	hedges         atomic.Uint64
	hedgeWins      atomic.Uint64
	failovers      atomic.Uint64
}

// target is one routable replica with its health gate.
type target struct {
	rep     *multirag.Replica
	breaker *fault.Breaker
	probing atomic.Bool
}

// newRouter validates the routing config and builds the router. A nil
// replica set returns a nil router (primary-only serving, zero overhead).
func newRouter(sys *multirag.System, set *multirag.ReplicaSet, route string, hedgeAfter time.Duration, maxLag uint64) (*router, error) {
	if set == nil {
		return nil, nil
	}
	switch route {
	case "":
		route = RouteRoundRobin
	case RouteRoundRobin, RoutePrimaryOnly:
	default:
		return nil, fmt.Errorf("serve: unknown route %q (want %s or %s)",
			route, RouteRoundRobin, RoutePrimaryOnly)
	}
	if maxLag == 0 {
		maxLag = DefaultMaxLag
	}
	rt := &router{sys: sys, set: set, route: route, hedgeAfter: hedgeAfter, maxLag: maxLag}
	for _, rep := range set.Replicas() {
		rt.targets = append(rt.targets, &target{
			rep:     rep,
			breaker: fault.NewBreaker("router."+rep.Name(), 3, time.Second, nil),
		})
	}
	return rt, nil
}

// run serves one formed batch through the routing policy.
func (rt *router) run(ctxs []context.Context, queries []string) []multirag.Answer {
	first := rt.pickExcept(nil)
	if first == nil {
		rt.primaryBatches.Add(1)
		return rt.sys.AskEach(ctxs, queries)
	}
	if rt.hedgeAfter <= 0 {
		// Unhedged: the replica sees the original contexts, so a batch with no
		// deadlines takes the engine's context-free path — bit-identical to
		// primary serving.
		rt.replicaBatches.Add(1)
		ans, err := rt.askTarget(first, ctxs, queries)
		if ans == nil || isRealError(err) {
			rt.failovers.Add(1)
			return rt.sys.AskEach(ctxs, queries)
		}
		return ans
	}
	return rt.hedge(first, ctxs, queries)
}

// askTarget runs one batch on a replica under its breaker, recording the
// outcome: clean answers close/confirm the breaker, engine-side degradation
// counts as a failure, the request's own deadline or disconnect is neutral.
// A nil answer slice means the breaker fast-failed and nothing ran.
func (rt *router) askTarget(t *target, ctxs []context.Context, queries []string) ([]multirag.Answer, error) {
	var ans []multirag.Answer
	err := t.breaker.Do(func() error {
		ans = t.rep.AskEach(ctxs, queries)
		return classifyAnswers(ans)
	})
	return ans, err
}

// hedge dispatches the batch to first, then — if no answer lands within
// hedgeAfter — to a second target (another replica, or the primary when none
// is eligible). The first acceptable answer wins; both dispatch contexts are
// canceled on return, so the loser's evaluation stops claiming work and its
// executor-side goroutines wind down promptly. A replica that loses to the
// hedge takes a breaker strike; a dispatch that fails outright triggers the
// hedge immediately (failover, not hedging).
func (rt *router) hedge(first *target, ctxs []context.Context, queries []string) []multirag.Answer {
	type result struct {
		ans  []multirag.Answer
		err  error
		from *target // nil = primary
	}
	resc := make(chan result, 2) // buffered: the loser's send never blocks or leaks
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	launch := func(t *target) {
		stop, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		mctxs := mergeCtxs(stop, ctxs)
		go func() {
			if t == nil {
				resc <- result{ans: rt.sys.AskEach(mctxs, queries)}
				return
			}
			ans, err := rt.askTarget(t, mctxs, queries)
			resc <- result{ans: ans, err: err, from: t}
		}()
	}

	rt.replicaBatches.Add(1)
	launch(first)
	timer := time.NewTimer(rt.hedgeAfter)
	defer timer.Stop()

	hedged := false
	pending := 1
	for {
		select {
		case r := <-resc:
			pending--
			if r.ans != nil && !isRealError(r.err) {
				if hedged && r.from != first {
					rt.hedgeWins.Add(1)
					// Strike the laggard asynchronously — its own Do is still
					// in flight and will record neutrally once its merged
					// context cancels.
					go func(t *target) { _ = t.breaker.Do(func() error { return errHedgeLost }) }(first)
				}
				return r.ans
			}
			if !hedged {
				// The only dispatch failed outright: hedge now (failover).
				hedged = true
				rt.failovers.Add(1)
				launch(rt.pickExcept(first))
				pending++
				continue
			}
			if pending == 0 {
				// Both attempts failed; the primary is the last resort.
				rt.failovers.Add(1)
				return rt.sys.AskEach(ctxs, queries)
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				rt.hedges.Add(1)
				launch(rt.pickExcept(first))
				pending++
			}
		}
	}
}

// pickExcept selects an eligible target other than skip, or nil for the
// primary. Replicas with an open breaker get a background probe kicked so
// they can re-admit once healthy.
func (rt *router) pickExcept(skip *target) *target {
	if rt.route == RoutePrimaryOnly {
		return nil
	}
	committed := rt.set.CommittedLSN()
	// Replica sets are a handful of targets, so the eligible ones collect in
	// a stack buffer and a pick allocates nothing.
	var buf [8]*target
	elig := buf[:0]
	for _, t := range rt.targets {
		if t == skip {
			continue
		}
		if t.breaker.State() != fault.BreakerClosed {
			rt.kickProbe(t)
			continue
		}
		if !t.rep.Live() {
			continue
		}
		if pos := t.rep.Position(); committed > pos && committed-pos > rt.maxLag {
			continue // bounded staleness: too far behind
		}
		elig = append(elig, t)
	}
	if len(elig) == 0 {
		return nil
	}
	return elig[int((rt.rr.Add(1)-1)%uint64(len(elig)))]
}

// kickProbe starts one background health probe for a breaker-drained target
// (single-flight per target). The probe runs under the breaker, so its
// verdict drives the open→half-open→closed machine; fault.PointClusterProbe
// lets chaos tests hold a replica out of service.
func (rt *router) kickProbe(t *target) {
	if !t.probing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.probing.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), defaultHedgeProbeTimeout)
		defer cancel()
		_ = t.breaker.Do(func() error { return t.rep.Probe(ctx) })
	}()
}

// classifyAnswers maps a batch outcome onto breaker semantics: any answer
// degraded for an engine-side reason is a failure; degradation caused only
// by the requests' own deadlines or disconnects is neutral (context error);
// clean batches are successes.
func classifyAnswers(answers []multirag.Answer) error {
	sawCtx := false
	for _, a := range answers {
		if !a.Degraded {
			continue
		}
		switch a.DegradedReason {
		case "canceled":
			sawCtx = true
		case "deadline":
			sawCtx = true
		default:
			return fmt.Errorf("%w: %s", errReplicaDegraded, a.DegradedReason)
		}
	}
	if sawCtx {
		return context.Canceled
	}
	return nil
}

// isRealError reports whether err should fail the batch over to another
// target. Context errors are the requests' own doing — re-running elsewhere
// cannot help — and nil is success.
func isRealError(err error) bool {
	return err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// mergeCtxs derives one context per request that cancels when either the
// request's own context or the dispatch-wide stop context ends — how a
// hedged dispatch's work is reclaimed the moment the other copy wins,
// without detaching any request from its deadline or disconnect signal.
func mergeCtxs(stop context.Context, ctxs []context.Context) []context.Context {
	out := make([]context.Context, len(ctxs))
	for i, c := range ctxs {
		if c == nil || c.Done() == nil {
			out[i] = stop
			continue
		}
		mc, cancel := context.WithCancel(stop)
		// AfterFunc's handle is released when c ends (request lifetime); the
		// merged context itself is released via stop's cancel.
		_ = context.AfterFunc(c, cancel)
		out[i] = mc
	}
	return out
}

// RouterMetrics is the /v1/metrics routing section.
type RouterMetrics struct {
	Route            string                   `json:"route"`
	HedgeAfterMillis int64                    `json:"hedge_after_ms"`
	MaxLag           uint64                   `json:"max_lag"`
	CommittedLSN     uint64                   `json:"committed_lsn"`
	PrimaryBatches   uint64                   `json:"primary_batches"`
	ReplicaBatches   uint64                   `json:"replica_batches"`
	Hedges           uint64                   `json:"hedges"`
	HedgeWins        uint64                   `json:"hedge_wins"`
	Failovers        uint64                   `json:"failovers"`
	Replicas         []multirag.ReplicaStatus `json:"replicas"`
	Breakers         []multirag.BreakerInfo   `json:"breakers"`
}

// metricsSnapshot assembles the router's metrics section.
func (rt *router) metricsSnapshot() *RouterMetrics {
	m := &RouterMetrics{
		Route:            rt.route,
		HedgeAfterMillis: rt.hedgeAfter.Milliseconds(),
		MaxLag:           rt.maxLag,
		CommittedLSN:     rt.set.CommittedLSN(),
		PrimaryBatches:   rt.primaryBatches.Load(),
		ReplicaBatches:   rt.replicaBatches.Load(),
		Hedges:           rt.hedges.Load(),
		HedgeWins:        rt.hedgeWins.Load(),
		Failovers:        rt.failovers.Load(),
		Replicas:         rt.set.Status(),
	}
	for _, t := range rt.targets {
		st := t.breaker.Stats()
		m.Breakers = append(m.Breakers, multirag.BreakerInfo{
			Name: st.Name, State: st.State, Failures: st.Failures,
			Trips: st.Trips, FastFails: st.FastFails, Successes: st.Successes,
		})
	}
	return m
}
