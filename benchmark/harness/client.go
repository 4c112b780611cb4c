package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"multirag"
)

// The wire structs are declared here, not imported from serve, so a renamed
// Go type inside the server cannot break the harness; only a changed JSON
// body can, and that is a change users of the API would see too.

// Answer is the part of a served answer the harness checks.
type Answer struct {
	Values   []string
	Found    bool
	Degraded bool
}

type queryBody struct {
	Query string `json:"query"`
	Class string `json:"class"`
}

type batchBody struct {
	Queries []string `json:"queries"`
	Class   string   `json:"class"`
}

// BatchReply is the /v1/query/batch reply.
type BatchReply struct {
	Answers []Answer `json:"answers"`
}

type ingestFile struct {
	Domain  string            `json:"domain"`
	Source  string            `json:"source"`
	Name    string            `json:"name"`
	Format  string            `json:"format"`
	Meta    map[string]string `json:"meta,omitempty"`
	Content string            `json:"content"`
}

type ingestBody struct {
	Files []ingestFile `json:"files"`
}

// IngestReply is the /v1/ingest acknowledgement.
type IngestReply struct {
	OK    bool `json:"ok"`
	Files int  `json:"files"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Entities        int
	Triples         int
	HomologousNodes int
	IsolatedClaims  int
	Chunks          int
}

// Request is one encoded API request. The per-layer pass replays the same
// bytes against the handler directly, without the loopback round trip.
type Request struct {
	Path string
	Body []byte
}

func encode(path string, body any) Request {
	data, err := json.Marshal(body)
	if err != nil {
		// The bodies are structs of strings and maps of strings.
		panic(err)
	}
	return Request{Path: path, Body: data}
}

// QueryRequest encodes one /v1/query of class interactive.
func QueryRequest(text string) Request {
	return encode("/v1/query", queryBody{Query: text, Class: "interactive"})
}

// BatchRequest encodes one /v1/query/batch of class batch.
func BatchRequest(texts []string) Request {
	return encode("/v1/query/batch", batchBody{Queries: texts, Class: "batch"})
}

// IngestRequest encodes one /v1/ingest.
func IngestRequest(files []multirag.File) Request {
	body := ingestBody{Files: make([]ingestFile, len(files))}
	for i, f := range files {
		body.Files[i] = ingestFile{Domain: f.Domain, Source: f.Source, Name: f.Name,
			Format: f.Format, Meta: f.Meta, Content: string(f.Content)}
	}
	return encode("/v1/ingest", body)
}

// Do posts r and decodes a 200 reply into out. The returned latency runs
// from before the send until the body has been read; encoding the request is
// the client's own cost and is not timed.
func (st *Stack) Do(r Request, out any) (time.Duration, error) {
	start := time.Now()
	resp, err := st.Client.Post(st.URL+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("%s: HTTP %d: %s", r.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return lat, json.Unmarshal(raw, out)
}

// Query posts one /v1/query.
func (st *Stack) Query(text string) (Answer, time.Duration, error) {
	var a Answer
	lat, err := st.Do(QueryRequest(text), &a)
	return a, lat, err
}

// Batch posts one /v1/query/batch.
func (st *Stack) Batch(texts []string) ([]Answer, time.Duration, error) {
	var r BatchReply
	lat, err := st.Do(BatchRequest(texts), &r)
	if err == nil && len(r.Answers) != len(texts) {
		err = fmt.Errorf("batch: %d answers for %d queries", len(r.Answers), len(texts))
	}
	return r.Answers, lat, err
}

// Ingest posts one /v1/ingest; a nil error means the files were acknowledged,
// which the server only does after the WAL fsync.
func (st *Stack) Ingest(files []multirag.File) (time.Duration, error) {
	var r IngestReply
	lat, err := st.Do(IngestRequest(files), &r)
	if err == nil && (!r.OK || r.Files != len(files)) {
		err = fmt.Errorf("ingest: acknowledged %d of %d files (ok=%v)", r.Files, len(files), r.OK)
	}
	return lat, err
}

// Get decodes a GET endpoint (/v1/stats, /v1/metrics) into out.
func (st *Stack) Get(path string, out any) error {
	resp, err := st.Client.Get(st.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
