package serve

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testClasses(caps ...Class) []*classState {
	out := make([]*classState, len(caps))
	for i, c := range caps {
		if c.QueueCap <= 0 {
			c.QueueCap = 256
		}
		out[i] = &classState{cfg: c}
	}
	return out
}

// mustHoldSlot takes a free slot of s.
func mustHoldSlot(t *testing.T, s *scheduler, cs *classState) {
	t.Helper()
	if w, err := s.claim(cs, 1); w != nil || err != nil {
		t.Fatalf("claim a free slot: waiter %v, err %v", w, err)
	}
}

// mustQueue queues a waiter for n queries of class cs.
func mustQueue(t *testing.T, s *scheduler, cs *classState, n int) *waiter {
	t.Helper()
	w, err := s.claim(cs, n)
	if w == nil || err != nil {
		t.Fatalf("queue %d queries: waiter %v, err %v", n, w, err)
	}
	return w
}

// granted reports whether w has been handed a slot, without blocking.
func granted(w *waiter) bool {
	select {
	case err := <-w.ready:
		return err == nil
	default:
		return false
	}
}

// grantOrder releases the one held slot once per waiter and returns the
// names of the waiters in the order release handed them the slot.
func grantOrder(t *testing.T, s *scheduler, names map[*waiter]string) []string {
	t.Helper()
	var got []string
	for range names {
		s.release()
		for w, name := range names {
			if granted(w) {
				got = append(got, name)
			}
		}
	}
	s.release()
	if s.running != 0 {
		t.Fatalf("running = %d after the last waiter's release, want 0", s.running)
	}
	return got
}

// TestFCFSOrdersByArrivalAcrossClasses: with one slot, queued requests of
// different classes, single queries and batches alike, are granted the slot
// strictly in arrival order, and each class's depth counts only its own
// queries.
func TestFCFSOrdersByArrivalAcrossClasses(t *testing.T) {
	classes := testClasses(Class{Name: "a"}, Class{Name: "b"}, Class{Name: "c"})
	s := newScheduler(classes, 1)
	mustHoldSlot(t, s, classes[0])
	names := map[*waiter]string{
		mustQueue(t, s, classes[1], 1): "q1",
		mustQueue(t, s, classes[0], 3): "q2",
		mustQueue(t, s, classes[2], 1): "q3",
		mustQueue(t, s, classes[1], 2): "q4",
		mustQueue(t, s, classes[0], 1): "q5",
	}
	if d := s.depths(); d["a"] != 4 || d["b"] != 3 || d["c"] != 1 {
		t.Fatalf("queue depths %v, want a=4 b=3 c=1", d)
	}
	got, want := grantOrder(t, s, names), []string{"q1", "q2", "q3", "q4", "q5"}
	if !slices.Equal(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
	if d := s.depths(); d["a"] != 0 || d["b"] != 0 || d["c"] != 0 {
		t.Fatalf("queue depths %v once every waiter was granted, want 0", d)
	}
}

func TestBoundedQueueRejectsWhenFull(t *testing.T) {
	classes := testClasses(Class{Name: "tiny", QueueCap: 2})
	s := newScheduler(classes, 1)
	mustHoldSlot(t, s, classes[0])
	mustQueue(t, s, classes[0], 1)
	// A batch waiter counts each of its queries: two do not fit in one.
	if w, err := s.claim(classes[0], 2); w != nil || err != errQueueFull {
		t.Fatalf("over-cap batch: waiter %v, err %v, want errQueueFull", w, err)
	}
	mustQueue(t, s, classes[0], 1)
	if w, err := s.claim(classes[0], 1); w != nil || err != errQueueFull {
		t.Fatalf("over-cap query: waiter %v, err %v, want errQueueFull", w, err)
	}
	if d := s.depths()["tiny"]; d != 2 {
		t.Fatalf("queue depth %d, want 2", d)
	}
}

// TestTimedOutRequestsAreDroppedFromBatches: a waiter that gives up while
// queued leaves the queue and is never granted a slot; release hands the
// slot to the waiter behind it.
func TestTimedOutRequestsAreDroppedFromBatches(t *testing.T) {
	classes := testClasses(Class{Name: "c", QueueCap: 10})
	s := newScheduler(classes, 1)
	mustHoldSlot(t, s, classes[0])
	doomed := mustQueue(t, s, classes[0], 1)
	kept := mustQueue(t, s, classes[0], 1)
	if err := s.wait(t.Context(), doomed, time.Millisecond); err != errQueueTimeout {
		t.Fatalf("wait on a held slot: %v, want errQueueTimeout", err)
	}
	if d := s.depths()["c"]; d != 1 {
		t.Fatalf("queue depth %d after the timeout, want 1", d)
	}
	s.release() // hands the slot to kept: doomed is no longer queued
	if len(doomed.ready) != 0 || !granted(kept) {
		t.Fatal("the slot went to the timed-out waiter, not the one behind it")
	}
	s.release()
	if s.running != 0 {
		t.Fatalf("running = %d after the last release, want 0", s.running)
	}
}

// TestQueueTimeoutLeavesNoBlockedSender: a waiter whose timeout loses the
// race to its grant takes the slot and passes it on, so running returns to 0
// and close does not hang.
func TestQueueTimeoutLeavesNoBlockedSender(t *testing.T) {
	classes := testClasses(Class{Name: "c", QueueCap: 10})
	s := newScheduler(classes, 1)
	mustHoldSlot(t, s, classes[0])
	raced := mustQueue(t, s, classes[0], 1)
	s.release() // hands the slot to raced
	// raced's timer fired as release granted it: it finds itself dequeued,
	// takes the grant and releases the slot onward.
	if err := s.abandon(raced); err != nil {
		t.Fatalf("abandon a granted waiter: %v", err)
	}
	if s.running != 0 {
		t.Fatalf("running = %d after the raced waiter passed its slot on, want 0", s.running)
	}

	closed := make(chan struct{})
	go func() {
		s.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close hangs on a slot nobody holds")
	}
}

// TestWaitersUnderContention: goroutines of two classes claim, wait with
// queue timeouts short enough to race their grants, hold and release. Never
// more than limit hold a slot at once, and once all are done no slot is held
// and nobody is queued.
func TestWaitersUnderContention(t *testing.T) {
	classes := testClasses(Class{Name: "a"}, Class{Name: "b"})
	s := newScheduler(classes, 2)
	var holding atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w, err := s.claim(classes[g%2], 1)
				if w != nil {
					err = s.wait(context.Background(), w, time.Duration(i%3)*50*time.Microsecond)
				}
				if err != nil {
					continue // timed out (or the queue was full)
				}
				if n := holding.Add(1); n > int32(s.limit) {
					t.Errorf("%d slots held, limit %d", n, s.limit)
				}
				runtime.Gosched()
				holding.Add(-1)
				s.release()
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	running, queued := s.running, len(s.line)
	depths := classes[0].queued + classes[1].queued
	s.mu.Unlock()
	if running != 0 || queued != 0 || depths != 0 {
		t.Fatalf("running=%d queued=%d depths=%d after every goroutine finished, want 0/0/0", running, queued, depths)
	}
	s.close()
}
