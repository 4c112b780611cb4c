package multirag

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"multirag/internal/core"
	"multirag/internal/fault"
	"multirag/internal/wal"
)

// chaosQueries are the base-corpus questions whose answers are pinned against
// a single-engine reference. Concurrent filler ingest touches only unrelated
// entities, so these answers are independent of how far any replica has read
// the log.
var chaosQueries = []string{
	"What is the status of CA981?",
	"What is the delay reason of CA981?",
}

func waitClusterGoroutines(t *testing.T, base int) {
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
		time.Sleep(20 * time.Millisecond)
	}
}

func chaosAnswersEqual(a Answer, b core.Answer) bool {
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

// TestChaosClusterReplicaFaults is the tentpole chaos scenario: a 3-replica
// cluster under concurrent query + ingest load while one replica is killed
// (replay fault), hung (stalled before its next read while the primary
// commits on and checkpoints), or silently corrupted (state swap caught by
// anti-entropy at the next verification point). Throughout, every answer any
// replica returns is value-identical to a single-engine reference;
// afterwards every replica has converged byte-identical to the primary — the
// killed and the corrupted one by fencing and resyncing, the hung one by
// reading the log it missed.
func TestChaosClusterReplicaFaults(t *testing.T) {
	scenarios := []struct {
		name string
		arm  func(c *ReplicaSet)      // injects the fault once the cluster is caught up
		hit  func(c *ReplicaSet) bool // reports the fault has landed (polled under load)
		heal func()                   // releases whatever the fault left armed
		// corruptIdx marks a replica deliberately serving wrong state until
		// anti-entropy fences it; its querier is skipped (the router-level
		// chaos suite covers shedding). -1 means every replica is compared.
		corruptIdx int
		resyncs    bool // the fault must end in a fence and resync
	}{
		{
			name: "kill-replay",
			arm: func(*ReplicaSet) {
				fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindError, MaxHits: 1})
			},
			hit:        func(*ReplicaSet) bool { return fault.Hits(fault.PointClusterReplay) >= 1 },
			heal:       func() {},
			corruptIdx: -1,
			resyncs:    true,
		},
		{
			name: "hang-replay",
			arm: func(*ReplicaSet) {
				fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindHang, MaxHits: 1})
			},
			hit:        func(*ReplicaSet) bool { return fault.Hits(fault.PointClusterReplay) >= 1 },
			heal:       func() { fault.Disable(fault.PointClusterReplay) },
			corruptIdx: -1,
		},
		{
			name: "corrupt-state",
			arm: func(c *ReplicaSet) {
				// Swap one replica's state for a snapshot that never came from
				// this primary — only the digest check at the next
				// verification point can catch this.
				other := core.NewSystem(testConfig())
				if _, err := other.Ingest(fillerBatch(999)); err != nil {
					t.Fatalf("Ingest other: %v", err)
				}
				r := c.Replicas()[0]
				if err := r.sys.SeedReplica(other.ServingHandle().Encode(), r.Position()); err != nil {
					t.Fatalf("corrupting seed: %v", err)
				}
			},
			hit: func(c *ReplicaSet) bool {
				return c.Replicas()[0].status(c.CommittedLSN()).Divergences >= 1
			},
			heal:       func() {},
			corruptIdx: 0,
			resyncs:    true,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			defer fault.Reset()
			baseGoroutines := runtime.NumGoroutine()

			primary := openPrimary(t, wal.NewMemFS())
			reference := core.NewSystem(testConfig())
			ingest(t, primary, corpusBatches()...)
			ingest(t, reference, corpusBatches()...)
			want := reference.QueryEach(nil, chaosQueries)

			c, err := newCluster(primary, 3)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer c.Close()
			waitCaughtUp(t, c)
			sc.arm(c)

			// Concurrent load: one ingester committing unrelated entities,
			// one querier per replica comparing every answer to the reference.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := primary.Ingest(fillerBatch(i)); err != nil {
						t.Errorf("Ingest under load: %v", err)
						return
					}
				}
			}()
			for idx, r := range c.Replicas() {
				if idx == sc.corruptIdx {
					continue // serving deliberately wrong state until fenced
				}
				wg.Add(1)
				go func(r *Replica) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						got := r.AskEach(make([]context.Context, len(chaosQueries)), chaosQueries)
						for i, ans := range got {
							if !chaosAnswersEqual(ans, want[i]) {
								t.Errorf("%s: answer %+v differs from reference %+v", r.name, ans, want[i])
								return
							}
						}
					}
				}(r)
			}
			waitFor(t, "fault to land under load", func() bool { return sc.hit(c) })
			// Checkpoints while the fault is live: a stalled replica's lease
			// must keep the log it has yet to read.
			for i := 0; i < 2; i++ {
				lsn := primary.ReplicationLSN()
				waitFor(t, "commits under load", func() bool { return primary.ReplicationLSN() > lsn+4 })
				if err := primary.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint under load: %v", err)
				}
			}
			close(stop)
			wg.Wait()
			sc.heal()
			waitCaughtUp(t, c)

			wantBytes := stateBytes(primary)
			var resyncs, divergences uint64
			for _, r := range c.Replicas() {
				if !bytes.Equal(stateBytes(r.sys), wantBytes) {
					t.Fatalf("%s differs from primary after healing", r.name)
				}
				st := r.status(c.CommittedLSN())
				resyncs += st.Resyncs
				divergences += st.Divergences
			}
			if sc.resyncs && resyncs == 0 {
				t.Fatal("no replica fenced and resynced under the injected fault")
			}
			if !sc.resyncs && resyncs != 0 {
				t.Fatalf("%d resyncs; a stalled replica must catch up from the log", resyncs)
			}
			if sc.name == "corrupt-state" && divergences == 0 {
				t.Fatal("anti-entropy never caught the corrupted replica")
			}
			for i, ans := range primary.QueryEach(nil, chaosQueries) {
				if !chaosAnswersEqual(convertAnswer(ans), want[i]) {
					t.Fatalf("primary answer %+v differs from reference %+v after chaos", ans, want[i])
				}
			}

			c.Close()
			primary.Close()
			waitClusterGoroutines(t, baseGoroutines)
		})
	}
}
