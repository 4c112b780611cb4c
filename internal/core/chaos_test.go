package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/fault"
	"multirag/internal/wal"
)

// chaosQueries is a mixed-intent workload: lookup, nested lookup, multi-hop
// shape, comparison and chunk-fallback, so every arm of the query DAG is
// exercised under each fault.
var chaosQueries = []string{
	"What is the status of CA981?",
	"What is the delay reason of CA981?",
	"What is the status of the delay reason of CA981?",
	"Do CA981 and MU588 have the same status?",
	"Anything new about CA981 today",
}

// cancelableCtxs returns never-canceled cancelable contexts (Done() != nil),
// forcing the context-aware evaluation path without ever firing it.
func cancelableCtxs(t *testing.T, n int) []context.Context {
	t.Helper()
	out := make([]context.Context, n)
	for i := range out {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		out[i] = ctx
	}
	return out
}

// waitGoroutines asserts the goroutine count settles back to (about) base —
// the no-leak watermark of the chaos and cancellation suites. The slack
// absorbs runtime helpers; anything structural (a leaked hang, a stuck
// sender) holds dozens of goroutines and fails the bound.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 10
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosQueryFaultGrid crosses the query-path injection points with every
// fault kind under concurrent per-request contexts: errors and panics become
// Degraded answers (never process crashes), latency and hangs are cut short
// by the request deadline, and after Reset the system answers bit-identically
// to its pre-chaos self — no torn snapshot, no poisoned cache.
func TestChaosQueryFaultGrid(t *testing.T) {
	defer fault.Reset()
	s := newCaseStudySystem(t, Config{})
	baseline := s.Query(chaosQueries[0])
	baseGoroutines := runtime.NumGoroutine()

	points := []string{
		fault.PointLLMGenerate,
		fault.PointLLMExtract,
		fault.PointEvidence,
		fault.PointRetrievalScan,
	}
	kinds := []fault.Kind{fault.KindError, fault.KindLatency, fault.KindHang, fault.KindPanic}

	for _, point := range points {
		for _, kind := range kinds {
			t.Run(point+"/"+kind.String(), func(t *testing.T) {
				defer fault.Reset()
				fault.Enable(point, fault.Fault{Kind: kind, Latency: 50 * time.Millisecond})

				ctxs := make([]context.Context, len(chaosQueries))
				for i := range ctxs {
					ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
					defer cancel()
					ctxs[i] = ctx
				}
				done := make(chan []Answer, 1)
				go func() { done <- s.QueryEach(ctxs, chaosQueries) }()
				var answers []Answer
				select {
				case answers = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("deadlock: QueryEach did not return under %s/%s", point, kind)
				}
				for i, ans := range answers {
					if ans.Degraded && ans.DegradedReason == "" {
						t.Errorf("query %d degraded without a reason", i)
					}
					if kind == fault.KindPanic && ans.Degraded &&
						!strings.HasPrefix(ans.DegradedReason, "panic:") {
						// Panic cells may degrade for the panic or, on arms that
						// never hit the point, not at all — but a panic reason
						// must be labeled as one.
						t.Errorf("query %d: degraded reason %q under panic fault", i, ans.DegradedReason)
					}
				}

				fault.Reset()
				after := s.Query(chaosQueries[0])
				if !answersEqual(baseline, after) {
					t.Fatalf("post-chaos answer diverged: %+v vs baseline %+v", after, baseline)
				}
			})
		}
	}
	waitGoroutines(t, baseGoroutines)
}

// answersEqual compares the externally visible answer fields.
func answersEqual(a, b Answer) bool {
	if a.Query != b.Query || a.Found != b.Found || a.Degraded != b.Degraded ||
		len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// TestChaosCommitFaultRecovery crosses the commit-side injection points with
// error faults on a durable (MemFS-backed) system: a failed group publishes
// nothing and acknowledges nothing (the snapshot is byte-identical to the
// pre-fault state), a later retry succeeds, and close/reopen recovers the
// exact bytes — the WAL never holds an acknowledged-but-lost or
// half-applied batch.
func TestChaosCommitFaultRecovery(t *testing.T) {
	for _, point := range []string{fault.PointCommit, fault.PointWALAppend} {
		t.Run(point, func(t *testing.T) {
			defer fault.Reset()
			fs := wal.NewMemFS()
			s, _ := openDurable(t, fs, durTestConfig())
			batches := seqBatches()
			if _, err := s.Ingest(batches[0]); err != nil {
				t.Fatalf("seed ingest: %v", err)
			}
			pre := snapBytes(s)

			fault.Enable(point, fault.Fault{Kind: fault.KindError, MaxHits: 1})
			if _, err := s.Ingest(batches[1]); err == nil {
				t.Fatalf("ingest under %s error fault succeeded", point)
			}
			if !bytes.Equal(snapBytes(s), pre) {
				t.Fatal("failed commit mutated the published snapshot")
			}

			// Budget spent: the same batch now commits cleanly.
			if _, err := s.Ingest(batches[1]); err != nil {
				t.Fatalf("retry after fault: %v", err)
			}
			want := snapBytes(s)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2, _ := openDurable(t, fs, durTestConfig())
			if !bytes.Equal(snapBytes(s2), want) {
				t.Fatal("recovered snapshot differs from pre-close state")
			}
		})
	}
}

// TestChaosCommitHangReleasedByDisable pins the commit path's containment
// contract: it carries no context, so a hang there blocks the committing
// caller until the fault is cleared — and clearing it lets the commit finish
// cleanly rather than abandoning the group.
func TestChaosCommitHangReleasedByDisable(t *testing.T) {
	defer fault.Reset()
	s := newCaseStudySystem(t, Config{})
	fault.Enable(fault.PointCommit, fault.Fault{Kind: fault.KindHang})
	done := make(chan error, 1)
	go func() {
		_, err := s.Ingest([]adapter.RawFile{{Domain: "flights", Source: "airport-api",
			Name: "late", Format: "text", Content: []byte("The status of MU551 is Boarding.")}})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("ingest returned while commit hang armed (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	fault.Disable(fault.PointCommit)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ingest after release: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest still blocked after Disable")
	}
	requireAnswer(t, s, "What is the status of MU551?", "Boarding")
}

// TestChaosCancelReleasesSlotPromptly is the ≤50ms acceptance bar: a
// dispatched query hung inside a model call must return (degraded) within
// 50ms of its context being canceled, freeing whatever executor slot was
// running it.
func TestChaosCancelReleasesSlotPromptly(t *testing.T) {
	defer fault.Reset()
	s := newCaseStudySystem(t, Config{})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindHang})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan Answer, 1)
	go func() { done <- s.QueryEach([]context.Context{ctx}, chaosQueries[:1])[0] }()

	// Wait until the evaluation is provably inside the hang.
	deadline := time.Now().Add(5 * time.Second)
	for fault.Hits(fault.PointLLMGenerate) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the hung injection point")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case ans := <-done:
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Fatalf("canceled query took %v to release its slot, want <= 50ms", elapsed)
		}
		if !ans.Degraded || ans.DegradedReason != "canceled" {
			t.Fatalf("canceled query answer = degraded=%v reason=%q, want canceled degrade",
				ans.Degraded, ans.DegradedReason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query never returned")
	}
}

// TestChaosCancelStress cancels request contexts at random points during
// concurrent QueryEach and ingest traffic under the race detector: no
// goroutine may leak (watermark), the snapshot may never tear (the baseline
// answer stays exact), and a degraded answer may only ever be blamed on the
// cancellation.
func TestChaosCancelStress(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	baseline := s.Query(chaosQueries[0])
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(1))

	const rounds = 12
	for round := 0; round < rounds; round++ {
		queries := make([]string, 24)
		ctxs := make([]context.Context, len(queries))
		var cancels []context.CancelFunc
		for i := range queries {
			queries[i] = chaosQueries[(round+i)%len(chaosQueries)]
			ctx, cancel := context.WithCancel(context.Background())
			ctxs[i], cancels = ctx, append(cancels, cancel)
			// Cancel a third immediately, a third mid-flight, leave a third.
			switch i % 3 {
			case 0:
				cancel()
			case 1:
				time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Ingest([]adapter.RawFile{{Domain: "flights", Source: "airport-api",
				Name: "live", Format: "text",
				Content: []byte("The status of MU551 is Boarding.")}})
		}()

		answers := s.QueryEach(ctxs, queries)
		for i, ans := range answers {
			if ans.Degraded && ans.DegradedReason != "canceled" && ans.DegradedReason != "deadline" {
				t.Fatalf("round %d query %d: degraded reason %q with no fault armed",
					round, i, ans.DegradedReason)
			}
		}
		wg.Wait()
		for _, cancel := range cancels {
			cancel()
		}
	}

	after := s.Query(chaosQueries[0])
	if !answersEqual(baseline, after) {
		t.Fatalf("post-stress answer diverged: %+v vs %+v", after, baseline)
	}
	waitGoroutines(t, baseGoroutines)
}

// TestChaosModelFaultDegradesOneAnswer: model calls are not retried. One
// failed model call — answer generation on a graph lookup, extraction on a
// "w/o MKA" chunk-path lookup — fires once and degrades that answer with the
// injected error's text; once the fault is spent, the next answer is
// undegraded and finds what an unfaulted twin finds.
func TestChaosModelFaultDegradesOneAnswer(t *testing.T) {
	const q = "What is the status of CA981?"
	for _, tc := range []struct {
		point string
		cfg   Config
	}{
		{fault.PointLLMGenerate, Config{}},
		{fault.PointLLMExtract, Config{DisableMKA: true}},
	} {
		t.Run(tc.point, func(t *testing.T) {
			defer fault.Reset()
			want := newCaseStudySystem(t, tc.cfg).Query(q)
			s := newCaseStudySystem(t, tc.cfg)
			fault.Enable(tc.point, fault.Fault{Kind: fault.KindError, MaxHits: 1})
			got := s.Query(q)
			if hits := fault.Hits(tc.point); hits != 1 {
				t.Fatalf("%s fired %d times, want 1", tc.point, hits)
			}
			if !got.Degraded || got.DegradedReason != fault.ErrInjected.Error() {
				t.Fatalf("faulted answer: degraded=%v reason=%q, want true/%q",
					got.Degraded, got.DegradedReason, fault.ErrInjected.Error())
			}
			next := s.Query(q)
			if next.Degraded || !want.Found || next.Found != want.Found || !reflect.DeepEqual(next.Values, want.Values) {
				t.Fatalf("answer after the spent fault:\n got  %+v\n want %+v", next, want)
			}
		})
	}
}
