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
// request runs on its handler goroutine, and once with every request forced
// through the queue to an executor.
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
	s, ts := newTestServer(t, Config{Policy: PolicyPriority})

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
				// queue; once it has, hand the slots to the executors.
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

// TestServeAdmissionRejects429 drives a class past its token bucket and
// checks both the status code and the rejection accounting.
func TestServeAdmissionRejects429(t *testing.T) {
	s, ts := newTestServer(t, Config{Classes: []Class{
		{Name: "limited", Rate: 1e-9, Burst: 2, Priority: 1},
	}})
	codes := map[int]int{}
	for i := 0; i < 5; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
		codes[resp.StatusCode]++
	}
	if codes[http.StatusOK] != 2 || codes[http.StatusTooManyRequests] != 3 {
		t.Fatalf("status codes: got %v, want 2x200 + 3x429", codes)
	}
	snap := s.Metrics()
	for _, c := range snap.Classes {
		if c.Name == "limited" {
			if c.Completed != 2 || c.RejectedAdmission != 3 {
				t.Fatalf("limited class accounting: %+v", c)
			}
			return
		}
	}
	t.Fatal("limited class missing from metrics")
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
		if c.Name == IngestClass && c.RejectedQueue != 1 {
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
// across classes and policies — the -race exercise for the scheduler,
// metrics and admission paths.
func TestServeConcurrentMixedLoad(t *testing.T) {
	for _, policy := range []string{PolicyFCFS, PolicyPriority} {
		t.Run(policy, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Policy: policy, MaxBatch: 8})
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
			snap := s.Metrics()
			var completed int64
			for _, cm := range snap.Classes {
				completed += cm.Completed
			}
			if completed != clients*perClient {
				t.Fatalf("completed = %d, want %d", completed, clients*perClient)
			}
			if snap.JainFairness <= 0 || snap.JainFairness > 1 {
				t.Fatalf("jain = %v out of range", snap.JainFairness)
			}
		})
	}
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

// TestUnadmittableBatchRejected400: a batch that can never be admitted — more
// queries than its class's queue cap, more than a rate-limited class's burst,
// or more ingest files than the ingest bucket's burst — is answered 400 naming
// the limit, with no Retry-After: a 429 would have a client that honours the
// header retry it forever. The rejections take no tokens, so requests within
// the limits are served afterwards.
func TestUnadmittableBatchRejected400(t *testing.T) {
	_, ts := newTestServer(t, Config{Classes: []Class{
		{Name: "interactive", Priority: 2},
		{Name: "limited", Rate: 1e-9, Burst: 2, Priority: 1},
		{Name: IngestClass, Rate: 1e-9, Burst: 2},
	}})
	queries := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "What is the status of CA981?"
		}
		return out
	}
	files := func(n int) []IngestFile {
		out := make([]IngestFile, n)
		for i := range out {
			out[i] = IngestFile{Domain: "flights", Source: "gate-feed", Name: fmt.Sprintf("g%d", i), Format: "kg", Content: "CA981|gate|G12\n"}
		}
		return out
	}
	for _, c := range []struct {
		name, path, limit string
		body              any
	}{
		{"over queue cap", "/v1/query/batch", "queue cap of 256", BatchRequest{Queries: queries(257)}},
		{"over class burst", "/v1/query/batch", "admission burst of 2", BatchRequest{Queries: queries(3), Class: "limited"}},
		{"over ingest burst", "/v1/ingest", "admission burst of 2", IngestRequest{Files: files(3)}},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", c.name, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("%s: 400 carries Retry-After %q", c.name, ra)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, c.limit) {
			t.Fatalf("%s: error %q does not name the limit %q (%v)", c.name, body, c.limit, err)
		}
	}

	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/query", QueryRequest{Query: "What is the status of CA981?"}},
		{"/v1/query/batch", BatchRequest{Queries: queries(256)}},
		{"/v1/query/batch", BatchRequest{Queries: queries(2), Class: "limited"}},
		{"/v1/ingest", IngestRequest{Files: files(2)}},
	} {
		if resp, body := postJSON(t, ts.URL+c.path, c.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after the 400s: status %d (%s), want 200", c.path, resp.StatusCode, body)
		}
	}
}
