package multirag

import (
	"context"
	"errors"

	"multirag/internal/cluster"
	"multirag/internal/core"
)

// ReplicaSetConfig sizes a ReplicaSet.
type ReplicaSetConfig struct {
	// Replicas is the number of read replicas (default 2).
	Replicas int
}

// ReplicaSet serves reads from N in-process replicas of a durable System.
// Each replica is seeded from the primary's published snapshot and then reads
// the primary's committed write-ahead-log records and replays them through
// the same path crash recovery uses, so every replica snapshot is
// byte-identical to the primary's at the same replication position and reads
// routed to replicas return exactly the answers the primary would. A replica
// whose read or replay fails, or whose snapshot digest differs from the
// primary's at one of the verification points every 16 records, fences
// itself and resyncs automatically.
type ReplicaSet struct {
	c *cluster.Cluster
}

// NewReplicaSet seeds a replica set from s and starts its replicas reading
// s's log. Replicas read the write-ahead log, so s must come from
// OpenDurable; an in-memory System is refused. Several sets may replicate one
// System; Close stops one.
func NewReplicaSet(s *System, cfg ReplicaSetConfig) (*ReplicaSet, error) {
	c, err := cluster.New(s.inner, cfg.Replicas)
	if errors.Is(err, core.ErrNotDurable) {
		return nil, errors.New("multirag: replicas read the primary's write-ahead log, so they need a System opened with OpenDurable (multirag serve -data-dir)")
	}
	if err != nil {
		return nil, err
	}
	return &ReplicaSet{c: c}, nil
}

// Close stops every replica and releases the log segments they kept. Safe to
// call more than once; call it before closing the System underneath.
func (rs *ReplicaSet) Close() { rs.c.Close() }

// CommittedLSN is the primary's replication position — the coordinate
// replica positions and staleness bounds are measured against.
func (rs *ReplicaSet) CommittedLSN() uint64 { return rs.c.CommittedLSN() }

// Replicas returns the read replicas (fixed for the set's lifetime).
func (rs *ReplicaSet) Replicas() []*Replica {
	inner := rs.c.Replicas()
	out := make([]*Replica, len(inner))
	for i, r := range inner {
		out[i] = &Replica{r: r}
	}
	return out
}

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
	inner := rs.c.Status()
	out := make([]ReplicaStatus, len(inner))
	for i, st := range inner {
		out[i] = ReplicaStatus{
			Name:        st.Name,
			State:       st.State,
			AppliedLSN:  st.Applied,
			Lag:         st.Lag,
			Verified:    st.Verified,
			Divergences: st.Divergences,
			Resyncs:     st.Resyncs,
			FenceReason: st.FenceReason,
		}
	}
	return out
}

// Replica is one read replica — a routing target for the serving layer.
type Replica struct {
	r *cluster.Replica
}

// Name identifies the replica ("replica-0", ...).
func (r *Replica) Name() string { return r.r.Name() }

// Live reports whether the replica is reading the primary's log and fit to
// serve (not fenced or mid-resync).
func (r *Replica) Live() bool { return r.r.State() == cluster.StateLive }

// Position is the replication position the replica has applied through.
func (r *Replica) Position() uint64 { return r.r.Position() }

// AskEach answers queries[i] under ctxs[i] against the replica's snapshot,
// exactly as System.AskEach would against the primary's.
func (r *Replica) AskEach(ctxs []context.Context, queries []string) []Answer {
	answers := r.r.AskEach(ctxs, queries)
	out := make([]Answer, len(answers))
	for i := range answers {
		out[i] = convertAnswer(answers[i])
	}
	return out
}

// Probe health-checks the replica; nil means it is live and servable. The
// serving router probes drained replicas before re-admitting them.
func (r *Replica) Probe(ctx context.Context) error { return r.r.Probe(ctx) }

// SnapshotDigest returns the anti-entropy fingerprint of the currently
// published snapshot. Two engines at the same replication position holding
// byte-identical state digest identically; `multirag recover -verify` prints
// this for offline comparison across nodes.
func (s *System) SnapshotDigest() uint64 { return s.inner.SnapshotDigest() }

// ReplicationLSN returns the system's replication position: the number of
// commit groups ever published (on durable systems, exactly the WAL's next
// LSN).
func (s *System) ReplicationLSN() uint64 { return s.inner.ReplicationLSN() }
