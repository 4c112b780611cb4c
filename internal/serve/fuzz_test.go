package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzServeRequest drives arbitrary bodies at the three POST endpoints
// through Handler().ServeHTTP on an in-memory case-study system. Whatever
// the body, the answer is a success or a typed rejection — 200, 400, 413,
// 429 or 503 — never a panic or a 500, and a rejection's body is at most
// 512 bytes: an error quotes a bounded excerpt of the request, never
// the whole of a field. The classes degrade, so a tiny deadline_ms yields a
// 200 with a degraded answer rather than a 504.
func FuzzServeRequest(f *testing.F) {
	paths := []string{"/v1/query", "/v1/query/batch", "/v1/ingest"}
	ingest := func(name, format, content string) string {
		return fmt.Sprintf(`{"files":[{"domain":"flights","source":"gate-feed","name":%q,"format":%q,"content":%q}]}`, name, format, content)
	}
	long := strings.Repeat("x", 2<<10)
	ctl := strings.Repeat(`\u0001`, 64)
	for _, seed := range []struct {
		path uint8
		body string
	}{
		{0, `{"query":"What is the status of CA981?"}`},
		{0, `{"query":"What is the status of CA981?","class":"batch","deadline_ms":1}`},
		{0, `{"query":"What is the status of CA981?"} {"query":"x"} garbage`},
		{1, `{"queries":["What is the status of CA981?","Do CA981 and MU588 have the same status?"],"class":"batch"}`},
		{1, `{"queries":["What is the status of CA981?"]} garbage`},
		{2, `{"files":[{"domain":"flights","source":"gate-feed","name":"gates","format":"kg","content":"CA981|gate|G12\n"}]}`},
		{2, `{"files":[{"domain":"flights","source":"gate-feed","name":"gates","format":"kg","content":"CA981|gate|G12\n"}]} {}`},
		// Each echoed its input whole: a kg line with no '|', a name (here
		// with a file the kg adapter rejects), a repeated CSV column and an
		// unknown class.
		{2, ingest("gates", "kg", long+"\n")},
		{2, ingest(long, "kg", "no separators\n")},
		{2, ingest("gates", "csv", "flight,"+long+","+long+"\nCA981,a,b\n")},
		{0, `{"query":"What is the status of CA981?","class":"` + long + `"}`},
		// 64-rune excerpts of four fields whose every rune quotes to four
		// bytes and JSON-encodes to five.
		{2, `{"files":[{"domain":"` + ctl + `","source":"` + ctl + `","name":"` + ctl + `","format":"` + ctl + `","content":"x"}]}`},
	} {
		f.Add(seed.path, []byte(seed.body))
	}
	classes := DefaultClasses()
	for i := range classes {
		classes[i].Degrade = true
	}
	s, err := New(Config{System: newCorpusSystem(f), Classes: classes})
	if err != nil {
		f.Fatalf("serve.New: %v", err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		p := paths[int(path)%len(paths)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, p, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s %q: status %d (%s)", p, body, w.Code, w.Body)
		}
		if w.Code != http.StatusOK && w.Body.Len() > 512 {
			t.Fatalf("POST %s: status %d with a %d-byte body: %.200s", p, w.Code, w.Body.Len(), w.Body)
		}
	})
}
