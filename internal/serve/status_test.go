package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"testing"
	"time"

	"multirag"
	"multirag/internal/fault"
)

// TestStatusEndpointsAnswerDuringCommit: /healthz, /v1/metrics and /v1/stats
// read the engine's status without its write lock, so they answer while a
// commit holds that lock — here a commit hung on an injected fault, standing
// in for a slow replay, WAL append or fsync.
func TestStatusEndpointsAnswerDuringCommit(t *testing.T) {
	defer fault.Reset()
	sys := newDurableCorpusSystem(t)
	_, ts := newTestServer(t, Config{System: sys})

	fault.Enable(fault.PointCommit, fault.Fault{Kind: fault.KindHang})
	ingested := make(chan error, 1)
	go func() {
		ingested <- sys.IngestFiles(multirag.File{Domain: "flights", Source: "airport-api", Name: "late",
			Format: "kg", Content: []byte("ZZ100|status|Scheduled\n")})
	}()
	waitUntil(t, "the commit to hang", func() bool { return fault.Hits(fault.PointCommit) > 0 })

	client := &http.Client{Timeout: time.Second}
	for _, path := range []string{"/healthz", "/v1/metrics", "/v1/stats"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s while a commit holds the write lock: %v", path, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while a commit holds the write lock: status %d", path, resp.StatusCode)
		}
	}
	fault.Disable(fault.PointCommit)
	if err := <-ingested; err != nil {
		t.Fatalf("IngestFiles after the commit was released: %v", err)
	}
}

// TestMetricsJSONKeys pins the key sets of /v1/metrics' status sections — the
// engine's durability and recovery, the router's own and its replicas', and
// the queue depths of the two query classes —
// on a durable system with one replica, so a change to the types behind them
// cannot rename a key operators and the benchmark read.
func TestMetricsJSONKeys(t *testing.T) {
	sys, info, err := multirag.OpenDurable(t.TempDir(), multirag.Config{Seed: 1})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.IngestFiles(corpusFiles()...); err != nil {
		t.Fatalf("ingest corpus: %v", err)
	}
	set, err := multirag.NewReplicaSet(sys, multirag.ReplicaSetConfig{Replicas: 1})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	t.Cleanup(set.Close)
	_, ts := newTestServer(t, Config{System: sys, Recovery: &info, Replicas: set})

	_, body := getJSON(t, ts.URL+"/v1/metrics")
	var m struct {
		Durability  map[string]any `json:"durability"`
		Recovery    map[string]any `json:"recovery"`
		Router      map[string]any `json:"router"`
		QueueDepths map[string]any `json:"queue_depths"`
	}
	var r struct {
		Router struct {
			Replicas []map[string]any `json:"replicas"`
		} `json:"router"`
	}
	if err := errors.Join(json.Unmarshal(body, &m), json.Unmarshal(body, &r)); err != nil {
		t.Fatalf("decode /v1/metrics: %v\n%s", err, body)
	}
	checks := []struct {
		section string
		objs    []map[string]any
		want    []string
	}{
		{"durability", []map[string]any{m.Durability}, []string{"durable", "last_checkpoint_lsn", "next_lsn"}},
		{"recovery", []map[string]any{m.Recovery}, []string{"checkpoint_lsn", "records_replayed", "truncated"}},
		{"router", []map[string]any{m.Router}, []string{"committed_lsn", "max_lag", "primary_batches", "replica_batches", "replicas", "route"}},
		{"router.replicas[]", r.Router.Replicas, []string{"applied_lsn", "divergences", "dropped_frames", "lag", "name", "resyncs", "state", "verified"}},
		{"queue_depths", []map[string]any{m.QueueDepths}, []string{"batch", "interactive"}},
	}
	for _, c := range checks {
		if len(c.objs) == 0 {
			t.Errorf("%s missing from /v1/metrics:\n%s", c.section, body)
		}
		for _, obj := range c.objs {
			var got []string
			for k := range obj {
				got = append(got, k)
			}
			slices.Sort(got)
			if !slices.Equal(got, c.want) {
				t.Errorf("%s keys %v, want %v", c.section, got, c.want)
			}
		}
	}
}
