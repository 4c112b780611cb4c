package serve

import (
	"testing"
	"time"
)

func testClasses(caps ...Class) []*classState {
	now := time.Now()
	out := make([]*classState, len(caps))
	for i, c := range caps {
		if c.QueueCap <= 0 {
			c.QueueCap = 256
		}
		out[i] = &classState{cfg: c, bucket: newTokenBucket(c.Rate, c.Burst, now)}
	}
	return out
}

func mustEnqueue(t *testing.T, s *scheduler, r *request) {
	t.Helper()
	if err := s.enqueue(r); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
}

func newReq(q string, cs *classState) *request {
	return &request{query: q, class: cs, done: make(chan answerResult, 1)}
}

func batchQueries(batch []*request) []string {
	out := make([]string, len(batch))
	for i, r := range batch {
		out[i] = r.query
	}
	return out
}

func TestFCFSOrdersByArrivalAcrossClasses(t *testing.T) {
	classes := testClasses(Class{Name: "a", Priority: 2}, Class{Name: "b", Priority: 1})
	s := newScheduler(PolicyFCFS, classes, 16, 1)
	mustEnqueue(t, s, newReq("q1", classes[1]))
	mustEnqueue(t, s, newReq("q2", classes[0]))
	mustEnqueue(t, s, newReq("q3", classes[1]))
	s.mu.Lock()
	got := batchQueries(s.formBatchLocked())
	s.mu.Unlock()
	want := []string{"q1", "q2", "q3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fcfs order: got %v, want %v", got, want)
		}
	}
}

func TestPriorityOrdersByClassThenArrival(t *testing.T) {
	classes := testClasses(Class{Name: "low", Priority: 1}, Class{Name: "high", Priority: 9})
	s := newScheduler(PolicyPriority, classes, 16, 1)
	mustEnqueue(t, s, newReq("low1", classes[0]))
	mustEnqueue(t, s, newReq("high1", classes[1]))
	mustEnqueue(t, s, newReq("low2", classes[0]))
	mustEnqueue(t, s, newReq("high2", classes[1]))
	s.mu.Lock()
	got := batchQueries(s.formBatchLocked())
	s.mu.Unlock()
	want := []string{"high1", "high2", "low1", "low2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order: got %v, want %v", got, want)
		}
	}
}

func TestBoundedQueueRejectsWhenFull(t *testing.T) {
	classes := testClasses(Class{Name: "tiny", QueueCap: 2})
	s := newScheduler(PolicyFCFS, classes, 16, 1)
	mustEnqueue(t, s, newReq("q1", classes[0]))
	mustEnqueue(t, s, newReq("q2", classes[0]))
	if err := s.enqueue(newReq("q3", classes[0])); err != errQueueFull {
		t.Fatalf("over-cap enqueue: got %v, want errQueueFull", err)
	}
	// Batch admission is all-or-nothing against the remaining capacity.
	if err := s.enqueueAll(classes[0], []*request{newReq("q4", classes[0])}); err != errQueueFull {
		t.Fatalf("over-cap enqueueAll: got %v, want errQueueFull", err)
	}
}

func TestTimedOutRequestsAreDroppedFromBatches(t *testing.T) {
	classes := testClasses(Class{Name: "c"})
	s := newScheduler(PolicyFCFS, classes, 16, 1)
	doomed := newReq("late", classes[0])
	kept := newReq("ontime", classes[0])
	mustEnqueue(t, s, doomed)
	mustEnqueue(t, s, kept)
	if !doomed.state.CompareAndSwap(reqPending, reqTimedOut) {
		t.Fatal("timeout CAS failed on pending request")
	}
	s.mu.Lock()
	got := batchQueries(s.formBatchLocked())
	s.mu.Unlock()
	if len(got) != 1 || got[0] != "ontime" {
		t.Fatalf("batch after timeout: got %v, want [ontime]", got)
	}
	// And a running request can no longer be timed out.
	if kept.state.Load() != reqRunning {
		t.Fatalf("claimed request state: got %d, want running", kept.state.Load())
	}
	if kept.state.CompareAndSwap(reqPending, reqTimedOut) {
		t.Fatal("timeout CAS succeeded on a claimed request")
	}
}
