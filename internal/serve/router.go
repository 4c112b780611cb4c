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
	// RouteRoundRobin spreads engine calls across eligible replicas in turn.
	RouteRoundRobin = "round-robin"
	// RoutePrimaryOnly sends every engine call to the primary; replicas only
	// follow its log (a warm-standby layout).
	RoutePrimaryOnly = "primary-only"
)

// DefaultMaxLag is the bounded-staleness limit: a replica more than this
// many commits behind the primary is ineligible until it catches up.
const DefaultMaxLag = 256

// probeTimeout bounds a router health probe.
const probeTimeout = time.Second

// errReplicaDegraded classifies a batch whose answers degraded for an
// engine-side reason (not the request's own deadline or disconnect).
var errReplicaDegraded = errors.New("serve: replica returned degraded answers")

// router spreads engine calls across a replica set, gated per replica by
// health (live state + a circuit breaker) and bounded staleness.
// Replication keeps replicas byte-identical to the primary, so routing is
// invisible in answer values; the router's job is purely availability:
//
//   - Eligibility: a replica serves only while live (following the log), its
//     breaker is closed, and it is within maxLag commits of the primary.
//   - Failover: calls fall back to the primary when no replica is eligible
//     or the picked replica fails mid-flight; an erroring replica's breaker
//     trips after consecutive failures and a background probe (single-flight,
//     via fault.PointClusterProbe) re-admits it once healthy.
type router struct {
	sys     *multirag.System
	set     *multirag.ReplicaSet
	route   string
	maxLag  uint64 // DefaultMaxLag; tests tighten it
	targets []*target
	rr      atomic.Uint64

	primaryBatches atomic.Uint64
	replicaBatches atomic.Uint64
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
func newRouter(sys *multirag.System, set *multirag.ReplicaSet, route string) (*router, error) {
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
	rt := &router{sys: sys, set: set, route: route, maxLag: DefaultMaxLag}
	for _, rep := range set.Replicas() {
		rt.targets = append(rt.targets, &target{
			rep:     rep,
			breaker: fault.NewBreaker("router."+rep.Name(), 3, time.Second, nil),
		})
	}
	return rt, nil
}

// run serves one engine call (a /v1/query or a whole /v1/query/batch): on a
// picked replica when one is eligible, failing over to the primary when none
// is or the replica fails mid-flight. Both see the request's own context.
func (rt *router) run(ctxs []context.Context, queries []string) []multirag.Answer {
	t := rt.pick()
	if t == nil {
		rt.primaryBatches.Add(1)
		return rt.sys.AskEach(ctxs, queries)
	}
	rt.replicaBatches.Add(1)
	ans, err := rt.askTarget(t, ctxs, queries)
	if ans == nil || isRealError(err) {
		rt.failovers.Add(1)
		return rt.sys.AskEach(ctxs, queries)
	}
	return ans
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

// pick selects an eligible target, or nil for the primary. Replicas with an
// open breaker get a background probe kicked so they can re-admit once
// healthy.
func (rt *router) pick() *target {
	if rt.route == RoutePrimaryOnly {
		return nil
	}
	committed := rt.set.CommittedLSN()
	// Replica sets are a handful of targets, so the eligible ones collect in
	// a stack buffer and a pick allocates nothing.
	var buf [8]*target
	elig := buf[:0]
	for _, t := range rt.targets {
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
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
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

// RouterMetrics is the /v1/metrics routing section.
type RouterMetrics struct {
	Route        string `json:"route"`
	MaxLag       uint64 `json:"max_lag"`
	CommittedLSN uint64 `json:"committed_lsn"`
	// PrimaryBatches and ReplicaBatches count engine calls: one per
	// /v1/query or whole /v1/query/batch, by where it was routed.
	PrimaryBatches uint64                   `json:"primary_batches"`
	ReplicaBatches uint64                   `json:"replica_batches"`
	Failovers      uint64                   `json:"failovers"`
	Replicas       []multirag.ReplicaStatus `json:"replicas"`
	Breakers       []multirag.BreakerInfo   `json:"breakers"`
}

// metricsSnapshot assembles the router's metrics section.
func (rt *router) metricsSnapshot() *RouterMetrics {
	m := &RouterMetrics{
		Route:          rt.route,
		MaxLag:         rt.maxLag,
		CommittedLSN:   rt.set.CommittedLSN(),
		PrimaryBatches: rt.primaryBatches.Load(),
		ReplicaBatches: rt.replicaBatches.Load(),
		Failovers:      rt.failovers.Load(),
		Replicas:       rt.set.Status(),
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
