package serve

import (
	"context"
	"testing"
	"time"

	"multirag"
	"multirag/internal/fault"
)

var routerQueries = []string{
	"What is the status of CA981?",
	"What is the delay reason of CA981?",
	"What is the status of MU588?",
}

// newDurableCorpusSystem is newCorpusSystem opened durably in a temporary
// directory — replicas read the primary's write-ahead log — and closed when
// the test ends.
func newDurableCorpusSystem(t *testing.T) *multirag.System {
	t.Helper()
	sys, _, err := multirag.OpenDurable(t.TempDir(), multirag.Config{Seed: 1})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.IngestFiles(corpusFiles()...); err != nil {
		t.Fatalf("ingest corpus: %v", err)
	}
	return sys
}

// newReplicatedSystem builds a corpus-loaded durable primary plus a caught-up
// replica set of n replicas. The corpus is ingested before the set attaches,
// so every replica is seeded with the full state and has no log to read yet.
func newReplicatedSystem(t *testing.T, n int) (*multirag.System, *multirag.ReplicaSet) {
	t.Helper()
	sys := newDurableCorpusSystem(t)
	set, err := multirag.NewReplicaSet(sys, multirag.ReplicaSetConfig{Replicas: n})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	t.Cleanup(set.Close)
	return sys, set
}

func newTestRouter(t *testing.T, sys *multirag.System, set *multirag.ReplicaSet, route string) *router {
	t.Helper()
	rt, err := newRouter(sys, set, route)
	if err != nil {
		t.Fatalf("newRouter: %v", err)
	}
	return rt
}

func valuesEqual(a, b multirag.Answer) bool {
	if a.Query != b.Query || a.Found != b.Found || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// TestRouterRoundRobinServesFromReplicas pins that batches actually land on
// replicas (not the primary) and answers match primary serving exactly.
func TestRouterRoundRobinServesFromReplicas(t *testing.T) {
	sys, set := newReplicatedSystem(t, 2)
	rt := newTestRouter(t, sys, set, RouteRoundRobin)

	want := sys.AskEach(make([]context.Context, len(routerQueries)), routerQueries)
	for i := 0; i < 4; i++ {
		got := rt.run(make([]context.Context, len(routerQueries)), routerQueries)
		for j := range got {
			if !valuesEqual(got[j], want[j]) {
				t.Fatalf("round %d answer %d: %+v != primary %+v", i, j, got[j], want[j])
			}
		}
	}
	if rt.replicaBatches.Load() != 4 || rt.primaryBatches.Load() != 0 {
		t.Fatalf("replica/primary batches = %d/%d, want 4/0",
			rt.replicaBatches.Load(), rt.primaryBatches.Load())
	}
}

// TestRouterPrimaryOnlyNeverTouchesReplicas pins the warm-standby policy.
func TestRouterPrimaryOnlyNeverTouchesReplicas(t *testing.T) {
	sys, set := newReplicatedSystem(t, 2)
	rt := newTestRouter(t, sys, set, RoutePrimaryOnly)
	rt.run(make([]context.Context, 1), routerQueries[:1])
	if rt.primaryBatches.Load() != 1 || rt.replicaBatches.Load() != 0 {
		t.Fatalf("primary/replica batches = %d/%d, want 1/0",
			rt.primaryBatches.Load(), rt.replicaBatches.Load())
	}
}

// TestRouterStalenessGuardFailsOverToPrimary pins bounded staleness: a live
// replica that has fallen more than maxLag commits behind is not routed to,
// and reads fail over to the primary until it catches up.
func TestRouterStalenessGuardFailsOverToPrimary(t *testing.T) {
	defer fault.Reset()
	sys, set := newReplicatedSystem(t, 1)
	rt := newTestRouter(t, sys, set, RouteRoundRobin)
	rt.maxLag = 1

	// Stall the replica before its next read, then commit past the lag bound.
	fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindHang})
	for i := 0; i < 3; i++ {
		if err := sys.IngestFiles(multirag.File{Domain: "flights", Source: "airport-api",
			Name: "filler", Format: "text", Content: []byte("The status of XX001 is Scheduled.")}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	rep := set.Replicas()[0]
	if lag := set.CommittedLSN() - rep.Position(); lag <= 1 {
		t.Fatalf("replica lag %d, want > 1 while it is stalled", lag)
	}
	rt.run(make([]context.Context, 1), routerQueries[:1])
	if rt.primaryBatches.Load() != 1 {
		t.Fatalf("lagging replica was routed to (primary batches = %d)", rt.primaryBatches.Load())
	}

	// Release the replica and wait for it to read the log; it becomes
	// eligible again without any probe (its breaker never tripped).
	fault.Disable(fault.PointClusterReplay)
	deadline := time.Now().Add(10 * time.Second)
	for rep.Position() != set.CommittedLSN() || !rep.Live() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: pos %d vs %d", rep.Position(), set.CommittedLSN())
		}
		time.Sleep(2 * time.Millisecond)
	}
	rt.run(make([]context.Context, 1), routerQueries[:1])
	if rt.replicaBatches.Load() != 1 {
		t.Fatalf("caught-up replica not re-admitted (replica batches = %d)", rt.replicaBatches.Load())
	}
}

// TestRouterFailoverDrainsErroringReplicaAndReadmits pins the breaker cycle:
// a replica whose query path fails is served around (answers stay correct),
// trips its breaker after consecutive strikes, is drained, and — once the
// fault clears and the cooldown elapses — is re-admitted by a background
// probe.
func TestRouterFailoverDrainsErroringReplicaAndReadmits(t *testing.T) {
	defer fault.Reset()
	sys, set := newReplicatedSystem(t, 1)
	rt := newTestRouter(t, sys, set, RouteRoundRobin)
	// Shrink the breaker cooldown so re-admission is testable.
	rt.targets[0].breaker = fault.NewBreaker("router.replica-0", 3, 50*time.Millisecond, nil)

	want := sys.AskEach(make([]context.Context, 1), routerQueries[:1])
	fault.Enable(fault.PointClusterQuery, fault.Fault{Kind: fault.KindError})
	for i := 0; i < 3; i++ {
		got := rt.run(make([]context.Context, 1), routerQueries[:1])
		if !valuesEqual(got[0], want[0]) {
			t.Fatalf("round %d: failover answer %+v != primary %+v", i, got[0], want[0])
		}
	}
	if rt.failovers.Load() != 3 {
		t.Fatalf("failovers = %d, want 3", rt.failovers.Load())
	}
	if st := rt.targets[0].breaker.State(); st != fault.BreakerOpen {
		t.Fatalf("breaker state after 3 strikes = %v, want open", st)
	}
	// Drained: the next batch goes straight to the primary without touching
	// the replica (no new failover — the replica was never picked).
	rt.run(make([]context.Context, 1), routerQueries[:1])
	if rt.failovers.Load() != 3 {
		t.Fatalf("drained replica still being tried (failovers = %d)", rt.failovers.Load())
	}

	fault.Disable(fault.PointClusterQuery)
	// After the cooldown, picking kicks a background probe which re-closes
	// the breaker; subsequent batches land on the replica again.
	deadline := time.Now().Add(10 * time.Second)
	before := rt.replicaBatches.Load()
	for rt.replicaBatches.Load() == before {
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-admitted: breaker %v", rt.targets[0].breaker.State())
		}
		got := rt.run(make([]context.Context, 1), routerQueries[:1])
		if !valuesEqual(got[0], want[0]) {
			t.Fatalf("answer during re-admission %+v != %+v", got[0], want[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterPickAllocFree: every batch picks a target, so the pick builds no
// slice of eligible targets; round-robin still alternates over them.
func TestRouterPickAllocFree(t *testing.T) {
	sys, set := newReplicatedSystem(t, 2)
	rt := newTestRouter(t, sys, set, RouteRoundRobin)
	a, b := rt.pick(), rt.pick()
	if a == nil || b == nil || a == b {
		t.Fatalf("round-robin picks %p, %p: want both replicas in turn", a, b)
	}
	if got := rt.pick(); got != a {
		t.Fatal("round-robin must return to the first replica")
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.pick() }); allocs != 0 {
		t.Fatalf("pick: %.0f allocs per pick, want 0", allocs)
	}
}

// TestServeMetricsExposeRouter pins the /v1/metrics wiring end to end.
func TestServeMetricsExposeRouter(t *testing.T) {
	sys, set := newReplicatedSystem(t, 2)
	s, err := New(Config{System: sys, Replicas: set, Route: RouteRoundRobin})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	snap := s.Metrics()
	if snap.Router == nil {
		t.Fatal("metrics missing router section")
	}
	if snap.Router.Route != RouteRoundRobin || len(snap.Router.Replicas) != 2 || len(snap.Router.Breakers) != 2 {
		t.Fatalf("router metrics = %+v", snap.Router)
	}
	for _, r := range snap.Router.Replicas {
		if r.State != "live" {
			t.Fatalf("replica %s state %q at rest, want live", r.Name, r.State)
		}
	}
}
