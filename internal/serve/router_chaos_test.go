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
	if cfg.Classes == nil {
		cfg.Classes = []Class{{Name: "q"}, {Name: IngestClass}}
	}
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
		QueryRequest{Query: want.Query, Class: "q"})
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

// TestChaosClusterRouterFailsOverOnQueryErrors injects hard failures into the
// replica query path: each failed dispatch strikes that replica's breaker and
// the batch fails over, so the client sees a correct 200 every time. Once the
// fault budget is spent, reads land on replicas again with no breaker left
// open.
func TestChaosClusterRouterFailsOverOnQueryErrors(t *testing.T) {
	defer fault.Reset()
	base := runtime.NumGoroutine()

	sys, _, s, ts, closeAll := newChaosClusterServer(t, 3,
		Config{Route: RouteRoundRobin})
	want := sys.AskEach(make([]context.Context, 1),
		[]string{"What is the delay reason of CA981?"})[0]

	fault.Enable(fault.PointClusterQuery, fault.Fault{Kind: fault.KindError, MaxHits: 3})
	for i := 0; i < 6; i++ {
		askServer(t, ts.URL, want)
	}
	if hits := fault.Hits(fault.PointClusterQuery); hits != 3 {
		t.Fatalf("fault hits = %d, want 3", hits)
	}
	snap := s.Metrics()
	if snap.Router.Failovers < 3 {
		t.Fatalf("failovers = %d, want >= 3", snap.Router.Failovers)
	}
	if snap.Router.ReplicaBatches == 0 {
		t.Fatal("reads never resumed on replicas after the fault budget drained")
	}
	for _, b := range snap.Router.Breakers {
		if b.State == "open" {
			t.Fatalf("breaker %s left open after spread-out strikes", b.Name)
		}
	}

	closeAll()
	waitServeGoroutines(t, base)
}
