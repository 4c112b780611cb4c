package multirag

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"multirag/internal/core"
	"multirag/internal/fault"
	"multirag/internal/wal"
)

// ReplicaSetConfig sizes a ReplicaSet.
type ReplicaSetConfig struct {
	// Replicas is the number of read replicas (default 2).
	Replicas int
}

// ReplicaSet serves reads from N in-process replicas of a durable System. A
// replica is recovery that does not stop: it is seeded once as a
// copy-on-write clone of the primary's published snapshot at a captured WAL
// position, then reads the primary's committed records out of its WAL
// segments and replays each through the decode/replay path crash recovery
// uses. So every replica snapshot is byte-identical to the primary's at the
// same replication position, and reads routed to replicas return exactly the
// answers the primary would.
//
// The log is the only delivery path, so nothing is ever dropped: a slow
// replica reads further behind, and its WAL retention lease keeps the
// segments it still needs through checkpoint pruning. A replica fences itself
// for one of two reasons — a read or replay error, or a snapshot digest that
// differs from the primary's at one of its verification points (every 16
// records) — and resyncs the way it was seeded.
type ReplicaSet struct {
	primary   *core.System
	replicas  []*Replica
	closeOnce sync.Once
}

// NewReplicaSet seeds cfg.Replicas read replicas from s's published snapshot
// and starts them reading s's log. Each replica is a copy-on-write clone of
// the snapshot, taken with its position and lease (core.System.ReplicationSeed),
// so it shares the primary's whole state — nothing is encoded, decoded or
// re-embedded — and copies a page or a list only when its own applies first
// write one. If any seed fails, NewReplicaSet releases every lease it took and
// returns the error with no replica started. Replicas read the write-ahead
// log, so s must come from OpenDurable; an in-memory System is refused.
// Several sets may replicate one System; Close stops one.
func NewReplicaSet(s *System, cfg ReplicaSetConfig) (*ReplicaSet, error) {
	n := cfg.Replicas
	if n <= 0 {
		n = 2
	}
	primary := s.inner
	rs := &ReplicaSet{primary: primary, replicas: make([]*Replica, 0, n)}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		r := &Replica{primary: primary, name: fmt.Sprintf("replica-%d", i), sys: core.NewSystem(primary.Config()),
			ctx: ctx, cancel: cancel, done: make(chan struct{})}
		lease, err := r.seed()
		if err != nil {
			cancel()
			for _, r := range rs.replicas {
				r.cancel()
				r.lease.Release()
			}
			if errors.Is(err, core.ErrNotDurable) {
				return nil, fmt.Errorf("multirag: replicas need a System opened with OpenDurable (multirag serve -data-dir): %w", err)
			}
			return nil, fmt.Errorf("multirag: seed %s: %w", r.name, err)
		}
		r.lease = lease
		rs.replicas = append(rs.replicas, r)
	}
	for _, r := range rs.replicas {
		go r.run()
	}
	return rs, nil
}

// Close stops every replica and releases the log segments they kept. Safe to
// call more than once; call it before closing the System underneath.
func (rs *ReplicaSet) Close() {
	rs.closeOnce.Do(func() {
		for _, r := range rs.replicas {
			r.cancel()
		}
		for _, r := range rs.replicas {
			<-r.done
			r.sys.Close()
			r.lease.Release()
		}
	})
}

// CommittedLSN is the primary's replication position — the coordinate
// replica positions and staleness bounds are measured against.
func (rs *ReplicaSet) CommittedLSN() uint64 { return rs.primary.ReplicationLSN() }

// Replicas returns the read replicas (fixed for the set's lifetime).
func (rs *ReplicaSet) Replicas() []*Replica { return rs.replicas }

// ReplicaStatus is one replica's externally visible state, for metrics.
type ReplicaStatus struct {
	// Name identifies the replica ("replica-0", ...).
	Name string `json:"name"`
	// State is "live", "syncing" or "fenced".
	State string `json:"state"`
	// AppliedLSN is the replication position the replica has applied through.
	AppliedLSN uint64 `json:"applied_lsn"`
	// Lag is committed minus applied at snapshot time.
	Lag uint64 `json:"lag"`
	// Verified counts verification points at which the replica's snapshot
	// digest matched the primary's.
	Verified uint64 `json:"verified"`
	// Divergences counts points at which it did not (each forced a resync).
	Divergences uint64 `json:"divergences"`
	// Resyncs counts fence→reseed cycles for any reason.
	Resyncs uint64 `json:"resyncs"`
	// DroppedFrames is always 0: replicas read the log, which drops nothing.
	DroppedFrames uint64 `json:"dropped_frames"`
	// FenceReason is why the replica is currently fenced, if it is.
	FenceReason string `json:"fence_reason,omitempty"`
}

// Status snapshots every replica.
func (rs *ReplicaSet) Status() []ReplicaStatus {
	committed := rs.CommittedLSN()
	out := make([]ReplicaStatus, len(rs.replicas))
	for i, r := range rs.replicas {
		out[i] = r.status(committed)
	}
	return out
}

// replicaState is a replica's health as its own apply loop sees it.
type replicaState int32

const (
	// stateLive: the replica is reading the primary's log and serving reads.
	stateLive replicaState = iota
	// stateSyncing: the replica is reseeding from the primary's snapshot.
	stateSyncing
	// stateFenced: a read or replay failed, or anti-entropy found a
	// divergence, and the replica has taken itself out of service.
	stateFenced
)

func (s replicaState) String() string {
	switch s {
	case stateLive:
		return "live"
	case stateSyncing:
		return "syncing"
	case stateFenced:
		return "fenced"
	default:
		return "unknown"
	}
}

// Replica is one read replica — a routing target for the serving layer: an
// in-memory engine built from the primary's config and advanced by a single
// goroutine that reads the primary's log. Queries run concurrently with
// replays (the engine's snapshots are immutable); only that goroutine mutates
// replication state.
type Replica struct {
	primary *core.System
	name    string
	sys     *core.System
	ctx     context.Context // canceled by ReplicaSet.Close; releases hung faults
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

// Live reports whether the replica is reading the primary's log and fit to
// serve (not fenced or mid-resync).
func (r *Replica) Live() bool { return replicaState(r.state.Load()) == stateLive }

// Position is the replication position the replica has applied through —
// compared against the primary's CommittedLSN by the staleness guard and the
// retention lease.
func (r *Replica) Position() uint64 { return r.applied.Load() }

// AskEach answers queries[i] under ctxs[i] against the replica's snapshot,
// exactly as System.AskEach would against the primary's.
func (r *Replica) AskEach(ctxs []context.Context, queries []string) []Answer {
	return askEach(r.sys, ctxs, queries)
}

// status snapshots the replica's counters against the given committed
// position.
func (r *Replica) status(committed uint64) ReplicaStatus {
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
		State:       replicaState(r.state.Load()).String(),
		AppliedLSN:  applied,
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
// committed, then sleep until it publishes again. It ends when the set
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

// seed makes the replica a clone of the primary's published snapshot
// (core.System.SeedReplicaClone) at the position captured with it, and returns
// the retention lease held at that position. The cursor opens there on the
// next read.
func (r *Replica) seed() (*core.WALLease, error) {
	handle, lsn, lease, err := r.primary.ReplicationSeed()
	if err != nil {
		return nil, err
	}
	if err := fault.Inject(r.ctx, fault.PointClusterSeed); err != nil {
		lease.Release()
		return nil, err
	}
	r.sys.SeedReplicaClone(handle, lsn)
	r.applied.Store(lsn)
	return lease, nil
}

// fenceAndResync takes the replica out of service and reseeds it the way
// NewReplicaSet seeded it: a fresh clone of the primary's snapshot with its
// position and lease. It reports whether the replica is live again; a
// shutdown in progress skips the resync.
func (r *Replica) fenceAndResync(cause error) bool {
	if r.ctx.Err() != nil {
		return false // closing: hung faults release with ctx errors
	}
	r.state.Store(int32(stateFenced))
	r.setFenceReason(cause.Error())
	r.resyncs.Add(1)

	r.state.Store(int32(stateSyncing))
	lease, err := r.seed()
	r.lease.Release()
	if err != nil {
		// Cloning the primary cannot fail; a seed that does failed on an
		// injected fault or a closing set. Stay fenced for good.
		r.state.Store(int32(stateFenced))
		r.setFenceReason("resync: " + err.Error())
		return false
	}
	r.lease, r.tail = lease, nil
	r.setFenceReason("")
	r.state.Store(int32(stateLive))
	return true
}

// SnapshotDigest returns the anti-entropy fingerprint of the currently
// published snapshot. Two engines at the same replication position holding
// byte-identical state digest identically; `multirag recover -verify` prints
// this for offline comparison across nodes.
func (s *System) SnapshotDigest() uint64 { return s.inner.SnapshotDigest() }

// ReplicationLSN returns the system's replication position: the number of
// commit groups ever published (on durable systems, exactly the WAL's next
// LSN).
func (s *System) ReplicationLSN() uint64 { return s.inner.ReplicationLSN() }
