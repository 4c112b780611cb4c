package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"multirag"
	"multirag/internal/fault"
)

// corpusFiles is the CA981 case-study corpus (the CLI demo), small enough
// for fast tests but exercising every intent the grammar supports.
func corpusFiles() []multirag.File {
	return []multirag.File{
		{Domain: "flights", Source: "airport-api", Name: "schedule", Format: "csv",
			Content: []byte("flight,origin,destination,status,departure_time\nCA981,PEK,JFK,Delayed,2024-10-01 14:30\nMU588,PVG,LAX,On time,2024-10-01 15:10\n")},
		{Domain: "flights", Source: "airline-app", Name: "live", Format: "json",
			Content: []byte(`[{"flight":"CA981","status":"Delayed","delay_reason":"Typhoon"},{"flight":"MU588","status":"On time"}]`)},
		{Domain: "flights", Source: "weather-feed", Name: "alerts", Format: "text",
			Content: []byte("Typhoon Haikui impacts PEK departures after 14:00. The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.")},
		{Domain: "flights", Source: "forum-user", Name: "posts", Format: "text",
			Content: []byte("The status of CA981 is On time.")},
	}
}

func newCorpusSystem(t testing.TB) *multirag.System {
	t.Helper()
	sys := multirag.Open(multirag.Config{Seed: 1})
	if err := sys.IngestFiles(corpusFiles()...); err != nil {
		t.Fatalf("ingest corpus: %v", err)
	}
	return sys
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.System == nil {
		cfg.System = newCorpusSystem(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, buf.Bytes()
}

// TestServeSmoke starts the server and issues one request per endpoint,
// asserting 200 plus well-formed JSON of the right shape (the CI smoke
// test; runs under -race like everything else).
func TestServeSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var ans multirag.Answer
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("query response not an Answer: %v (%s)", err, body)
	}
	if !ans.Found || len(ans.Values) == 0 {
		t.Fatalf("query found no answer: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/query/batch", BatchRequest{Queries: []string{
		"What is the status of CA981?",
		"Do CA981 and MU588 have the same status?",
	}, Class: "batch"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatalf("batch response: %v (%s)", err, body)
	}
	if len(batch.Answers) != 2 {
		t.Fatalf("batch answers: got %d, want 2", len(batch.Answers))
	}

	resp, body = postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Files: []IngestFile{{
		Domain: "flights", Source: "gate-feed", Name: "gates", Format: "kg",
		Content: "CA981|gate|G12\n",
	}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var ing IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil || !ing.OK || ing.Files != 1 {
		t.Fatalf("ingest response: %v (%s)", err, body)
	}

	resp, body = getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %s", resp.StatusCode, body)
	}
	var st multirag.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats response: %v (%s)", err, body)
	}
	if st.Triples == 0 {
		t.Fatalf("stats reports empty corpus: %s", body)
	}

	resp, body = getJSON(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, body)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics response: %v (%s)", err, body)
	}
	if snap.IngestCapacity == 0 {
		t.Fatalf("metrics missing ingest capacity: %s", body)
	}
	var completed int64
	for _, c := range snap.Classes {
		completed += c.Completed
	}
	if completed < 4 {
		t.Fatalf("metrics completed = %d, want >= 4: %s", completed, body)
	}

	resp, body = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, body)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz response: %v (%s)", err, body)
	}
}

// TestServeQueryEquivalence pins the acceptance bar: answers through the
// HTTP path are bit-identical to in-process System.Ask over the same query
// sequence (same seed, same corpus, same order — source history evolves
// identically on both sides). It runs once with idle slots, where each
// request runs at once, and once with every request forced to wait in the
// queue for a slot.
func TestServeQueryEquivalence(t *testing.T) {
	for _, queued := range []bool{false, true} {
		name := "idle"
		if queued {
			name = "queued"
		}
		t.Run(name, func(t *testing.T) { testQueryEquivalence(t, queued) })
	}
}

func testQueryEquivalence(t *testing.T, queued bool) {
	ref := newCorpusSystem(t)
	s, ts := newTestServer(t, Config{})

	queries := []string{
		"What is the status of CA981?",
		"What is the delay reason of CA981?",
		"What is the departure time of CA981?",
		"Do CA981 and MU588 have the same status?",
		"Anything new about CA981 today",
	}
	// Two passes: the second exercises caches and the evolved source
	// history, exactly where a non-transparent serving layer would drift.
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			var r reply
			if queued {
				// Hold every slot while the request arrives, so it can only
				// queue; once it has, hand it a slot.
				release := holdSlots(t, s)
				pending := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: q})
				waitUntil(t, "the request is queued", func() bool { return queuedRequests(s) == 1 })
				release()
				r = <-pending
			} else {
				resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: q})
				r = reply{code: resp.StatusCode, body: body}
			}
			if r.code != http.StatusOK {
				t.Fatalf("pass %d %q: status %d: %s", pass, q, r.code, r.body)
			}
			var got multirag.Answer
			if err := json.Unmarshal(r.body, &got); err != nil {
				t.Fatalf("pass %d %q: %v", pass, q, err)
			}
			want := ref.Ask(q)
			// Compare through one JSON round-trip on both sides so the wire
			// encoding itself is part of the contract.
			wantJSON, _ := json.Marshal(want)
			var wantRT multirag.Answer
			_ = json.Unmarshal(wantJSON, &wantRT)
			if !reflect.DeepEqual(got, wantRT) {
				t.Fatalf("pass %d %q: HTTP answer diverges\n got: %s\nwant: %s", pass, q, r.body, wantJSON)
			}
		}
	}
}

// TestServeIngestBackpressure429 saturates the (stubbed) committer admission
// window and checks the ingest endpoint sheds with 429 instead of blocking.
func TestServeIngestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.pressure = func() (int, int) { return 64, 64 }
	resp, body := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Files: []IngestFile{{
		Domain: "flights", Source: "late-feed", Name: "x", Format: "kg", Content: "CA981|gate|G9\n",
	}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: status %d (%s), want 429", resp.StatusCode, body)
	}
	snap := s.Metrics()
	for _, c := range snap.Classes {
		if c.Name == "ingest" && (c.RejectedAdmission != 1 || c.RejectedQueue != 0) {
			t.Fatalf("ingest rejection accounting: %+v", c)
		}
	}
	// Clearing the pressure restores service.
	s.pressure = s.sys.IngestPressure
	resp, body = postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Files: []IngestFile{{
		Domain: "flights", Source: "late-feed", Name: "x", Format: "kg", Content: "CA981|gate|G9\n",
	}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered ingest: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestServeConcurrentMixedLoad hammers the server from concurrent clients
// across classes — the -race exercise for the scheduler and metrics paths.
// The subtest is named for the queue's one policy, first-come first-served.
func TestServeConcurrentMixedLoad(t *testing.T) {
	t.Run("fcfs", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		const clients, perClient = 8, 10
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				class := "interactive"
				if c%2 == 1 {
					class = "batch"
				}
				for i := 0; i < perClient; i++ {
					q := "What is the status of CA981?"
					if i%3 == 1 {
						q = "Do CA981 and MU588 have the same status?"
					}
					resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: q, Class: class})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
						return
					}
				}
				errs <- nil
			}(c)
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		var completed int64
		for _, cm := range s.Metrics().Classes {
			completed += cm.Completed
		}
		if completed != clients*perClient {
			t.Fatalf("completed = %d, want %d", completed, clients*perClient)
		}
	})
}

// TestServeQueueTimeout503: a request that finds every slot held queues, and
// one that waits in queue past the configured timeout is shed with 503 +
// Retry-After and counted; once the slots are free the server serves again.
func TestServeQueueTimeout503(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueTimeout: 20 * time.Millisecond})
	release := holdSlots(t, s)
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	release()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("queued past the timeout: status %d Retry-After %q (%s), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	var timedOut int64
	for _, c := range s.Metrics().Classes {
		timedOut += c.TimedOut
	}
	if timedOut != 1 {
		t.Fatalf("timed_out = %d, want 1", timedOut)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the timeout: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestQueueTimeoutBoundsOnlyTheWait: Config.QueueTimeout bounds the wait for
// a slot, not the evaluation. A queued request granted its slot well inside
// the timeout runs to completion though its evaluation outlasts what is left
// of the timeout, as the same query does on an idle server.
func TestQueueTimeoutBoundsOnlyTheWait(t *testing.T) {
	defer fault.Reset()
	const timeout = 200 * time.Millisecond
	s, ts := newTestServer(t, Config{Executors: 1, QueueTimeout: timeout})
	release := holdSlots(t, s)
	pending := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	waitUntil(t, "the request is queued", func() bool { return queuedRequests(s) == 1 })
	fault.Enable(fault.PointServeExecute, fault.Fault{Kind: fault.KindLatency, Latency: 3 * timeout})
	release()
	if r := <-pending; r.code != http.StatusOK {
		t.Fatalf("request granted inside its queue timeout: status %d (%s), want 200", r.code, r.body)
	}
	for _, c := range s.Metrics().Classes {
		if c.Canceled != 0 || c.TimedOut != 0 {
			t.Fatalf("class %s: canceled=%d timed_out=%d, want 0/0", c.Name, c.Canceled, c.TimedOut)
		}
	}
}

// fillReader yields an endless run of 'a' bytes.
type fillReader struct{}

func (fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestOversizeBodyRejected: a body past maxBodyBytes is answered 413 with the
// typed ErrorResponse on every POST endpoint — the decoder stops at the limit
// instead of buffering whatever the client sends — and the server keeps
// serving normal requests afterwards. The oversize body is one JSON string
// streamed without being materialised; the limit trips while the decoder is
// still scanning it, before any field is interpreted.
func TestOversizeBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/query", "/v1/query/batch", "/v1/ingest"} {
		body := io.MultiReader(strings.NewReader(`{"query":"`), io.LimitReader(fillReader{}, maxBodyBytes))
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var er ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if derr != nil || !strings.Contains(er.Error, "exceeds") {
			t.Fatalf("%s: 413 body not an ErrorResponse: %v %+v", path, derr, er)
		}

		resp, out := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query after oversize %s: status %d: %s", path, resp.StatusCode, out)
		}
	}
}

// TestOverlongQueryRejected400: a query longer than 4 KiB is answered 400
// with the typed ErrorResponse, alone at /v1/query and anywhere in a
// /v1/query/batch, before it is admitted or reaches the engine, whose
// per-query tables are bounded by entry count and would otherwise keep it.
// A query of exactly 4 KiB is served.
func TestOverlongQueryRejected400(t *testing.T) {
	const limit = 4 << 10
	_, ts := newTestServer(t, Config{})
	long := "What is the status of " + strings.Repeat("C", limit) + "?"
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/query", QueryRequest{Query: long}},
		{"/v1/query/batch", BatchRequest{Queries: []string{"What is the status of CA981?", long}}},
	} {
		resp, out := postJSON(t, ts.URL+c.path, c.body)
		var er ErrorResponse
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %.200s", c.path, resp.StatusCode, out)
		}
		if err := json.Unmarshal(out, &er); err != nil || !strings.Contains(er.Error, "exceeds") {
			t.Fatalf("%s: 400 body not an ErrorResponse naming the limit: %v %.200s", c.path, err, out)
		}
	}
	atLimit := "What is the status of CA981?" + strings.Repeat(" ", limit-len("What is the status of CA981?"))
	if resp, out := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: atLimit}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query of exactly %d bytes: status %d: %.200s", limit, resp.StatusCode, out)
	}
}

// TestUnadmittableBatchRejected400: a batch that can never be admitted —
// more queries than its class's queue cap — is answered 400 naming the
// limit, with no Retry-After: a 429 would have a client that honours the
// header retry it forever. A batch at the cap is served afterwards.
func TestUnadmittableBatchRejected400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	queries := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "What is the status of CA981?"
		}
		return out
	}
	resp, body := postJSON(t, ts.URL+"/v1/query/batch", BatchRequest{Queries: queries(257)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over queue cap: status %d (%s), want 400", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("over queue cap: 400 carries Retry-After %q", ra)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "queue cap of 256") {
		t.Fatalf("over queue cap: error %q does not name the limit (%v)", body, err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/query/batch", BatchRequest{Queries: queries(256)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch at the queue cap after the 400: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestQueryNamingIngestRejected400: "ingest" labels /v1/ingest's outcomes and
// is no query class, so a /v1/query or /v1/query/batch that names it gets the
// unknown-class 400, with a body of at most 512 bytes, and queues nothing.
func TestQueryNamingIngestRejected400(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/query", QueryRequest{Query: "What is the status of CA981?", Class: "ingest"}},
		{"/v1/query/batch", BatchRequest{Queries: []string{"What is the status of CA981?"}, Class: "ingest"}},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(er.Error, "unknown class") || len(body) > 512 {
			t.Fatalf("%s naming ingest: status %d (%.200s), want a 400 of at most 512 bytes naming the unknown class",
				c.path, resp.StatusCode, body)
		}
	}
	if c := s.Metrics().Classes[ingest]; c.Completed != 0 || c.Failed != 0 {
		t.Fatalf("ingest class counted a query: %+v", c)
	}
}

// TestQueueCapBoundsEachClassShare: Config.QueueCap bounds each query class's
// share of the line separately, so with one slot held and an interactive
// query filling its share of one, a batch query still queues instead of
// getting a 429, and both are served once the slot frees.
func TestQueueCapBoundsEachClassShare(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 1, QueueCap: 1})
	release := holdSlots(t, s)
	first := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?", Class: "interactive"})
	waitUntil(t, "the interactive query is queued", func() bool { return queuedRequests(s) == 1 })
	second := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?", Class: "batch"})
	waitUntil(t, "the batch query is queued beside it", func() bool { return queuedRequests(s) == 2 })
	release()
	for _, r := range []reply{<-first, <-second} {
		if r.code != http.StatusOK {
			t.Fatalf("status %d, want 200: %s", r.code, r.body)
		}
	}
	for _, c := range s.Metrics().Classes {
		if c.RejectedQueue != 0 {
			t.Fatalf("class %s: rejected_queue = %d, want 0", c.Name, c.RejectedQueue)
		}
	}
}
