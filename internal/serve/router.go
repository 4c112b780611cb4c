package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"multirag"
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

// router spreads engine calls across a replica set, gated per replica by
// what the replica itself reports: it is live and within maxLag commits of
// the primary. A replica unfit to serve says so: it fences itself on a read
// error, a replay error or a digest mismatch, and is not live again until it
// has resynced. Replication keeps every engine's snapshot byte-identical to
// the primary's, but routing is not invisible in answers: MCC's confidences
// read the serving engine's own source history (confidence.HistoryStore),
// which learns only from the queries routed to that engine and is neither
// logged nor replicated. The same query at the same log position can
// therefore get different confidences, and so different values, on
// different engines (ROADMAP item 3 makes history replicated state). Calls
// go to the primary when no replica passes both gates.
type router struct {
	sys    *multirag.System
	set    *multirag.ReplicaSet
	route  string
	maxLag uint64 // DefaultMaxLag; tests tighten it
	rr     atomic.Uint64

	primaryBatches atomic.Uint64
	replicaBatches atomic.Uint64
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
	return &router{sys: sys, set: set, route: route, maxLag: DefaultMaxLag}, nil
}

// run serves one engine call (a /v1/query or a whole /v1/query/batch) on a
// picked replica, or on the primary when none is eligible. Both see the
// request's own context.
func (rt *router) run(ctxs []context.Context, queries []string) []multirag.Answer {
	if rep := rt.pick(); rep != nil {
		rt.replicaBatches.Add(1)
		return rep.AskEach(ctxs, queries)
	}
	rt.primaryBatches.Add(1)
	return rt.sys.AskEach(ctxs, queries)
}

// pick selects an eligible replica round-robin, or nil for the primary.
func (rt *router) pick() *multirag.Replica {
	if rt.route == RoutePrimaryOnly {
		return nil
	}
	committed := rt.set.CommittedLSN()
	// Replica sets are a handful of replicas, so the eligible ones collect
	// in a stack buffer and a pick allocates nothing.
	var buf [8]*multirag.Replica
	elig := buf[:0]
	for _, rep := range rt.set.Replicas() {
		if !rep.Live() {
			continue
		}
		if pos := rep.Position(); committed > pos && committed-pos > rt.maxLag {
			continue // bounded staleness: too far behind
		}
		elig = append(elig, rep)
	}
	if len(elig) == 0 {
		return nil
	}
	return elig[int((rt.rr.Add(1)-1)%uint64(len(elig)))]
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
	Replicas       []multirag.ReplicaStatus `json:"replicas"`
}

// metricsSnapshot assembles the router's metrics section.
func (rt *router) metricsSnapshot() *RouterMetrics {
	return &RouterMetrics{
		Route:          rt.route,
		MaxLag:         rt.maxLag,
		CommittedLSN:   rt.set.CommittedLSN(),
		PrimaryBatches: rt.primaryBatches.Load(),
		ReplicaBatches: rt.replicaBatches.Load(),
		Replicas:       rt.set.Status(),
	}
}
