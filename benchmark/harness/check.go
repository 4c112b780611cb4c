package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"multirag/benchmark/workload"
	"multirag/internal/eval"
)

// scorer is the per-response half of the correctness gate. A reply is not ok
// when the transport failed, the status was not 200, the answer is Degraded,
// or — on the read-only workloads — a fallback answer is not Found or its
// Values differ from an earlier reply to the same text. Graph answers are
// scored by F1 against dataset gold instead of compared run to run, because
// MCC's source-history learning may legitimately move a value; on mixed-rw,
// where delta shards add conflicting claims, fallback answers are only
// checked for status and Degraded.
type scorer struct {
	readOnly bool

	mu   sync.Mutex
	f1   eval.Mean
	seen map[string]string
	errs []string
	more int
}

// maxErrors bounds how many distinct failures are kept for the report.
const maxErrors = 8

func newScorer(readOnly bool) *scorer {
	return &scorer{readOnly: readOnly, seen: map[string]string{}}
}

// note records a failed check for the final report; nil is ignored.
func (s *scorer) note(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) < maxErrors {
		s.errs = append(s.errs, err.Error())
	} else {
		s.more++
	}
}

func (s *scorer) errors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.errs...)
	if s.more > 0 {
		out = append(out, fmt.Sprintf("... and %d more failed checks", s.more))
	}
	return out
}

func (s *scorer) resetF1() {
	s.mu.Lock()
	s.f1 = eval.Mean{}
	s.mu.Unlock()
}

var errDegraded = errors.New("degraded answer")

func (s *scorer) checkGraph(q workload.GoldQuery, a Answer) error {
	if a.Degraded {
		return fmt.Errorf("%q: %w", q.Text, errDegraded)
	}
	_, _, f1 := eval.PRF1(a.Values, q.Gold)
	s.mu.Lock()
	s.f1.Add(f1)
	s.mu.Unlock()
	return nil
}

func (s *scorer) checkFallback(text string, a Answer) error {
	if a.Degraded {
		return fmt.Errorf("%q: %w", text, errDegraded)
	}
	if !s.readOnly {
		return nil
	}
	if !a.Found {
		return fmt.Errorf("%q: fallback answer not found", text)
	}
	got := strings.Join(a.Values, "\x00")
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.seen[text]; ok && prev != got {
		return fmt.Errorf("%q: fallback values changed between replies", text)
	}
	s.seen[text] = got
	return nil
}

func (s *scorer) timedGraphQuery(st *Stack, q workload.GoldQuery) (time.Duration, error) {
	a, lat, err := st.Query(q.Text)
	if err != nil {
		return lat, err
	}
	return lat, s.checkGraph(q, a)
}

func (s *scorer) graphQuery(st *Stack, q workload.GoldQuery) error {
	_, err := s.timedGraphQuery(st, q)
	return err
}

func (s *scorer) fallbackQuery(st *Stack, text string) error {
	a, _, err := st.Query(text)
	if err != nil {
		return err
	}
	return s.checkFallback(text, a)
}
