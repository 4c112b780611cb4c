package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"multirag"
	"multirag/internal/fault"
)

// newChaosClusterServer stands up a corpus-loaded durable primary, an
// n-replica set and a full HTTP server routing reads across it. Tests close
// everything before the goroutine-watermark check. Close order: httptest
// server, Server, ReplicaSet, System.
func newChaosClusterServer(t *testing.T, n int, cfg Config) (
	*multirag.System, *multirag.ReplicaSet, *Server, *httptest.Server, func()) {
	t.Helper()
	sys := newDurableCorpusSystem(t)
	set, err := multirag.NewReplicaSet(sys, multirag.ReplicaSetConfig{Replicas: n})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	waitReplicasCaughtUp(t, set)
	cfg.System = sys
	cfg.Replicas = set
	s, err := New(cfg)
	if err != nil {
		set.Close()
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	closeAll := func() {
		ts.Close()
		s.Close()
		set.Close()
		sys.Close()
	}
	return sys, set, s, ts, closeAll
}

func waitReplicasCaughtUp(t *testing.T, set *multirag.ReplicaSet) {
	t.Helper()
	waitUntil(t, "the replicas catch up", func() bool {
		for _, r := range set.Replicas() {
			if !r.Live() || r.Position() != set.CommittedLSN() {
				return false
			}
		}
		return true
	})
}

// askServer posts one query and asserts 200 + answer values equal to want.
func askServer(t *testing.T, url string, want multirag.Answer) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query",
		QueryRequest{Query: want.Query})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d: %s", want.Query, resp.StatusCode, body)
	}
	var got multirag.Answer
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode answer: %v (%s)", err, body)
	}
	if !valuesEqual(got, want) {
		t.Fatalf("served answer %+v != primary %+v", got, want)
	}
}

func ingestFiller(t *testing.T, sys *multirag.System, i int) {
	t.Helper()
	err := sys.IngestFiles(multirag.File{
		Domain: "flights", Source: "airport-api", Name: fmt.Sprintf("filler-%d", i),
		Format:  "text",
		Content: []byte(fmt.Sprintf("The status of XX%03d is Scheduled.", i)),
	})
	if err != nil {
		t.Fatalf("ingest filler %d: %v", i, err)
	}
}

// TestChaosClusterRouterShedsLaggingReplica is the serve-level chaos case: one
// of three replicas stalls before its next read while writes keep
// committing. The stalled replica falls past the staleness bound and is shed;
// every HTTP read during the outage still returns exactly the primary's
// answer. When the stall releases, the replica reads the log it missed and
// rejoins without a resync — visible through /v1/metrics.
func TestChaosClusterRouterShedsLaggingReplica(t *testing.T) {
	defer fault.Reset()
	base := runtime.NumGoroutine()
	const maxLag = 4

	sys, set, s, ts, closeAll := newChaosClusterServer(t, 3, Config{Route: RouteRoundRobin})
	s.router.maxLag = maxLag
	want := sys.AskEach(make([]context.Context, 1),
		[]string{"What is the status of CA981?"})[0]

	// Stall exactly one replica (MaxHits 1): it falls behind under the write
	// load below while the other two keep applying.
	fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindHang, MaxHits: 1})
	stalled := func() bool {
		for _, st := range set.Status() {
			if st.Lag > maxLag {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !stalled(); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("replica never stalled past the lag bound: %+v", set.Status())
		}
		ingestFiller(t, sys, i)
		askServer(t, ts.URL, want)
	}
	// The laggard is now ineligible; reads shed to the survivors and stay
	// correct for the rest of the outage.
	for i := 0; i < 5; i++ {
		askServer(t, ts.URL, want)
	}

	// Release the stall; the replica reads what it missed from the log.
	fault.Disable(fault.PointClusterReplay)
	waitReplicasCaughtUp(t, set)
	for _, st := range set.Status() {
		if st.Resyncs != 0 {
			t.Fatalf("a stalled replica must catch up from the log, not resync: %+v", set.Status())
		}
	}
	askServer(t, ts.URL, want)

	// The wire metrics tell the whole story: reads landed on replicas, and
	// every replica ended the chaos window live.
	resp, body := getJSON(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if snap.Router == nil {
		t.Fatal("metrics missing router section")
	}
	if snap.Router.ReplicaBatches == 0 {
		t.Fatal("no read ever served from a replica")
	}
	if len(snap.Router.Replicas) != 3 {
		t.Fatalf("router reports %d replicas, want 3", len(snap.Router.Replicas))
	}
	for _, st := range snap.Router.Replicas {
		if st.State != "live" {
			t.Fatalf("replica %s ended %q (%s), want live", st.Name, st.State, st.FenceReason)
		}
	}

	closeAll()
	waitServeGoroutines(t, base)
}

// TestChaosClusterRouterSkipsResyncingReplica pins the router's health gate:
// a replica that fences itself — here on an injected replay error — is not
// live while it resyncs, so no read is routed to it and every HTTP answer is
// still the primary's. Once its resync completes it is live again and back
// in the rotation.
func TestChaosClusterRouterSkipsResyncingReplica(t *testing.T) {
	defer fault.Reset()
	base := runtime.NumGoroutine()

	sys, set, s, ts, closeAll := newChaosClusterServer(t, 3, Config{Route: RouteRoundRobin})
	want := sys.AskEach(make([]context.Context, 1),
		[]string{"What is the status of CA981?"})[0]

	// Fence exactly one replica on its next read and hold its resync.
	fault.Enable(fault.PointClusterSeed, fault.Fault{Kind: fault.KindHang})
	fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindError, MaxHits: 1})
	ingestFiller(t, sys, 0)
	waitUntil(t, "a replica to fence and start its resync", func() bool {
		return fault.Hits(fault.PointClusterSeed) > 0
	})
	var syncing *multirag.Replica
	var name string
	for i, r := range set.Replicas() {
		if !r.Live() {
			syncing, name = r, set.Status()[i].Name
		}
	}
	if syncing == nil {
		t.Fatalf("no replica is out of service during its resync: %+v", set.Status())
	}

	for i := 0; i < 9; i++ {
		switch s.router.pick() {
		case nil:
			t.Fatalf("pick %d went to the primary with two replicas live", i)
		case syncing:
			t.Fatalf("pick %d chose %s while it resyncs", i, name)
		}
		askServer(t, ts.URL, want)
	}

	// Release the resync; the replica is live again and is picked within
	// one round of the rotation.
	fault.Disable(fault.PointClusterSeed)
	waitReplicasCaughtUp(t, set)
	picked := false
	for i := 0; i < len(set.Replicas()) && !picked; i++ {
		picked = s.router.pick() == syncing
	}
	if !picked {
		t.Fatalf("%s not picked again after its resync: %+v", name, set.Status())
	}
	askServer(t, ts.URL, want)
	for _, st := range set.Status() {
		resyncs := uint64(0)
		if st.Name == name {
			resyncs = 1
		}
		if st.Resyncs != resyncs {
			t.Fatalf("replica %s resynced %d times, want %d", st.Name, st.Resyncs, resyncs)
		}
	}

	closeAll()
	waitServeGoroutines(t, base)
}
