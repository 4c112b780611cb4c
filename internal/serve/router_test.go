package serve

import (
	"context"
	"testing"

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
// and reads go to the primary until it catches up.
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
	// eligible again as soon as it is back within the lag bound.
	fault.Disable(fault.PointClusterReplay)
	waitUntil(t, "the replica catches up", func() bool {
		return rep.Position() == set.CommittedLSN() && rep.Live()
	})
	rt.run(make([]context.Context, 1), routerQueries[:1])
	if rt.replicaBatches.Load() != 1 {
		t.Fatalf("caught-up replica not re-admitted (replica batches = %d)", rt.replicaBatches.Load())
	}
}

// TestRouterPickAllocFree: every batch picks a replica, so the pick builds no
// slice of eligible replicas; round-robin still alternates over them.
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
	if snap.Router.Route != RouteRoundRobin || len(snap.Router.Replicas) != 2 {
		t.Fatalf("router metrics = %+v", snap.Router)
	}
	for _, r := range snap.Router.Replicas {
		if r.State != "live" {
			t.Fatalf("replica %s state %q at rest, want live", r.Name, r.State)
		}
	}
}
