package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"multirag/internal/core"
	"multirag/internal/fault"
	"multirag/internal/wal"
)

// State is a replica's health as its own apply loop sees it.
type State int32

const (
	// StateLive: the replica is reading the primary's log and serving reads.
	StateLive State = iota
	// StateSyncing: the replica is reseeding from the primary's snapshot.
	StateSyncing
	// StateFenced: a read or replay failed, or anti-entropy found a
	// divergence, and the replica has taken itself out of service.
	StateFenced
)

func (s State) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateSyncing:
		return "syncing"
	case StateFenced:
		return "fenced"
	default:
		return "unknown"
	}
}

// ReplicaStatus is one replica's externally visible state.
type ReplicaStatus struct {
	Name    string `json:"name"`
	State   string `json:"state"`
	Applied uint64 `json:"applied_lsn"`
	// Lag is committed-applied at snapshot time (0 when caught up).
	Lag         uint64 `json:"lag"`
	Verified    uint64 `json:"verified"`
	Divergences uint64 `json:"divergences"`
	Resyncs     uint64 `json:"resyncs"`
	FenceReason string `json:"fence_reason,omitempty"`
}

// Replica is one read replica: an in-memory engine built from the primary's
// config and advanced by a single goroutine that reads the primary's log.
// Queries run concurrently with replays (the engine's snapshots are
// immutable); only that goroutine mutates replication state.
type Replica struct {
	primary *core.System
	name    string
	sys     *core.System
	ctx     context.Context // canceled by Cluster.Close; releases hung faults
	cancel  context.CancelFunc
	done    chan struct{}

	// Owned by the run goroutine (and by Close once it has exited): the log
	// cursor, opened at the position on the first read after a seed, and the
	// retention lease that keeps the cursor's segments through pruning.
	tail  *wal.Tail
	lease *core.WALLease

	mu          sync.Mutex
	fenceReason string

	state       atomic.Int32
	applied     atomic.Uint64 // LSN of the next record to read and replay
	verified    atomic.Uint64
	divergences atomic.Uint64
	resyncs     atomic.Uint64
}

// Name returns the replica's stable identifier ("replica-0", ...).
func (r *Replica) Name() string { return r.name }

// State returns the replica's current health state.
func (r *Replica) State() State { return State(r.state.Load()) }

// Position is the replication position the replica has applied through —
// compared against the primary's CommittedLSN by the staleness guard and the
// retention lease.
func (r *Replica) Position() uint64 { return r.applied.Load() }

// System exposes the replica's engine (read-only use: queries, digests).
func (r *Replica) System() *core.System { return r.sys }

// AskEach answers a batch of queries on the replica's snapshot — the routing
// target the serving layer dispatches to. The fault point lets chaos tests
// hang or fail one replica's read path in isolation; an injected error
// degrades the whole batch (the router counts that as a strike).
func (r *Replica) AskEach(ctxs []context.Context, queries []string) []core.Answer {
	ctx := context.Background()
	for _, qc := range ctxs {
		if qc != nil {
			ctx = qc
			break
		}
	}
	if err := fault.Inject(ctx, fault.PointClusterQuery); err != nil {
		out := make([]core.Answer, len(queries))
		for i, q := range queries {
			out[i] = core.Answer{Query: q, Degraded: true, DegradedReason: err.Error()}
		}
		return out
	}
	return r.sys.QueryEach(ctxs, queries)
}

// Probe is the health check the router runs before re-admitting a drained
// replica: it passes only when the replica is live (not fenced or syncing).
func (r *Replica) Probe(ctx context.Context) error {
	if err := fault.Inject(ctx, fault.PointClusterProbe); err != nil {
		return err
	}
	if st := r.State(); st != StateLive {
		return fmt.Errorf("cluster: %s is %s", r.name, st)
	}
	return nil
}

// Status snapshots the replica's counters against the given committed
// position.
func (r *Replica) Status(committed uint64) ReplicaStatus {
	applied := r.applied.Load()
	var lag uint64
	if committed > applied {
		lag = committed - applied
	}
	r.mu.Lock()
	reason := r.fenceReason
	r.mu.Unlock()
	return ReplicaStatus{
		Name:        r.name,
		State:       r.State().String(),
		Applied:     applied,
		Lag:         lag,
		Verified:    r.verified.Load(),
		Divergences: r.divergences.Load(),
		Resyncs:     r.resyncs.Load(),
		FenceReason: reason,
	}
}

func (r *Replica) setFenceReason(reason string) {
	r.mu.Lock()
	r.fenceReason = reason
	r.mu.Unlock()
}

// run is the replica's apply loop: replay every record the primary has
// committed, then sleep until it publishes again. It ends when the cluster
// closes, or when a resync fails and the replica stays fenced.
func (r *Replica) run() {
	defer close(r.done)
	for {
		committed, wake := r.primary.Published()
		if err := r.catchUp(committed); err != nil && !r.fenceAndResync(err) {
			return
		}
		select {
		case <-r.ctx.Done():
			return
		case <-wake:
		}
	}
}

// catchUp reads and replays records up to committed, then raises the lease
// to the new position.
func (r *Replica) catchUp(committed uint64) error {
	for r.applied.Load() < committed {
		if err := r.step(committed); err != nil {
			return err
		}
	}
	r.lease.Advance(r.applied.Load())
	return nil
}

// step reads and replays the records from the replica's position up to
// committed or the next verification point, as one run (ReplicaApplyTail).
// When the position is one of the primary's verification points, it first
// compares its own digest with the primary's digest there: anti-entropy for a
// replica that replayed every record and diverged anyway.
func (r *Replica) step(committed uint64) error {
	if err := fault.Inject(r.ctx, fault.PointClusterReplay); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	lsn := r.applied.Load()
	if digest, ok := r.primary.DigestAt(lsn); ok {
		if got, want := r.sys.SnapshotDigest(), digest(); got != want {
			r.divergences.Add(1)
			return fmt.Errorf("anti-entropy: digest %016x != primary %016x at %d", got, want, lsn)
		}
		r.verified.Add(1)
	}
	if r.tail == nil {
		t, err := r.primary.TailWAL(lsn)
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		r.tail = t
	}
	n, err := r.sys.ReplicaApplyTail(r.tail, committed)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	r.applied.Store(lsn + uint64(n))
	return nil
}

// seed replaces the replica's state with the snapshot body captured at lsn.
func (r *Replica) seed(body []byte, lsn uint64) error {
	if err := fault.Inject(r.ctx, fault.PointClusterSeed); err != nil {
		return err
	}
	return r.sys.SeedReplica(body, lsn)
}

// fenceAndResync takes the replica out of service and reseeds it the way New
// seeded it: a fresh capture of the primary's snapshot, position and lease.
// The cursor reopens at the new position on the next read. It reports whether
// the replica is live again; a shutdown in progress skips the resync.
func (r *Replica) fenceAndResync(cause error) bool {
	if r.ctx.Err() != nil {
		return false // closing: hung faults release with ctx errors
	}
	r.state.Store(int32(StateFenced))
	r.setFenceReason(cause.Error())
	r.resyncs.Add(1)

	r.state.Store(int32(StateSyncing))
	handle, lsn, lease, err := r.primary.ReplicationSeed()
	if err == nil {
		if err = r.seed(handle.Encode(), lsn); err != nil {
			lease.Release()
		}
	}
	r.lease.Release()
	if err != nil {
		// A just-encoded snapshot failing to decode means memory corruption:
		// stay fenced for good rather than serve from an unknown state.
		r.state.Store(int32(StateFenced))
		r.setFenceReason("resync: " + err.Error())
		return false
	}
	r.lease, r.tail = lease, nil
	r.applied.Store(lsn)
	r.setFenceReason("")
	r.state.Store(int32(StateLive))
	return true
}
