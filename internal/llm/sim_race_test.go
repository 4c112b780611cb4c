package llm

import (
	"fmt"
	"sync"
	"testing"
)

// simWorkload exercises every public Sim method once, the way concurrent
// query goroutines do.
func simWorkload(s *Sim, i int) {
	q := fmt.Sprintf("What is the status of CA%03d?", i%7)
	s.ParseQuery(q)
	mentions := s.ExtractEntities("The status of CA981 is Delayed.")
	s.ExtractTriples("The status of CA981 is Delayed.", mentions)
	s.Standardize("Air China")
	s.JudgeAuthority(AuthorityContext{Node: int32(i), Source: "airline", Degree: 3, MaxDegree: 9, LocalStrength: 0.8})
	s.GenerateAnswer(q, []Evidence{
		{Value: "Delayed", Weight: 0.9, Verified: true},
		{Value: "On time", Weight: 0.3},
	})
	s.Usage()
	s.VirtualLatency()
}

// TestSimConcurrentUsageAccounting hammers one Sim from many goroutines
// (run with -race) and checks the mutex-guarded usage box loses no calls:
// the concurrent totals must equal a serial replay of the same workload.
func TestSimConcurrentUsageAccounting(t *testing.T) {
	const goroutines = 16
	const iters = 25

	concurrent := NewSim(DefaultConfig())
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for gr := 0; gr < goroutines; gr++ {
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				simWorkload(concurrent, gr*iters+i)
			}
		}(gr)
	}
	wg.Wait()

	serial := NewSim(DefaultConfig())
	for gr := 0; gr < goroutines; gr++ {
		for i := 0; i < iters; i++ {
			simWorkload(serial, gr*iters+i)
		}
	}
	if concurrent.Usage() != serial.Usage() {
		t.Fatalf("usage accounting lost updates under contention:\n concurrent %+v\n serial     %+v",
			concurrent.Usage(), serial.Usage())
	}
}

// TestSimDeterministicUnderConcurrency verifies that the per-call outputs are
// pure functions of their inputs regardless of interleaving: every goroutine
// asking the same question must see the same answer.
func TestSimDeterministicUnderConcurrency(t *testing.T) {
	s := NewSim(DefaultConfig())
	ev := []Evidence{{Value: "Delayed", Weight: 0.9, Verified: true}, {Value: "On time", Weight: 0.2}}
	want := s.GenerateAnswer("What is the status of CA981?", ev)

	const goroutines = 12
	results := make([][]string, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for gr := 0; gr < goroutines; gr++ {
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				results[gr] = s.GenerateAnswer("What is the status of CA981?", ev)
			}
		}(gr)
	}
	wg.Wait()
	for gr, got := range results {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("goroutine %d got %v, want %v", gr, got, want)
		}
	}
}
