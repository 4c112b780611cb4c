// Package cluster serves reads from N in-process replicas of a durable
// primary. A replica is recovery that does not stop: it is seeded once from
// the primary's published snapshot at a captured WAL position, then reads the
// primary's committed records out of its WAL segments and replays each
// through the decode/replay path crash recovery uses. The replication
// invariant — every replica snapshot is byte-identical to the primary's at
// the same position — is what lets the serving router spread reads across
// replicas without changing a single answer bit.
//
// The log is the only delivery path, so nothing is ever dropped: a slow
// replica reads further behind, and its WAL retention lease keeps the
// segments it still needs through checkpoint pruning. A replica fences itself
// for one of two reasons — a read or replay error, or a digest that differs
// from the primary's at one of its verification points (every 16 records) —
// and resyncs the way it was seeded.
package cluster

import (
	"context"
	"fmt"
	"sync"

	"multirag/internal/core"
	"multirag/internal/par"
)

// Cluster is a primary and its replica set.
type Cluster struct {
	primary   *core.System
	replicas  []*Replica
	closeOnce sync.Once
}

// New seeds n read replicas (2 when n <= 0) from one capture of primary's
// published snapshot and starts them reading its log. The snapshot is encoded
// once and the replicas decode it concurrently. If any seed fails, New
// releases every lease it took and returns the error with no replica
// started. The primary must be durable: an in-memory one has no log, and New
// returns core.ErrNotDurable.
func New(primary *core.System, n int) (*Cluster, error) {
	if n <= 0 {
		n = 2
	}
	handle, lsn, lease, err := primary.ReplicationSeed()
	if err != nil {
		return nil, err
	}
	seed := handle.Encode()
	c := &Cluster{primary: primary, replicas: make([]*Replica, n)}
	for i := range c.replicas {
		if i > 0 {
			lease = primary.AcquireWALLease(lsn) // the first lease holds lsn already
		}
		ctx, cancel := context.WithCancel(context.Background())
		c.replicas[i] = &Replica{primary: primary, name: fmt.Sprintf("replica-%d", i), sys: core.NewSystem(primary.Config()),
			lease: lease, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	}
	errs := make([]error, n)
	par.ForEach(n, n, func(i int) { errs[i] = c.replicas[i].seed(seed, lsn) })
	for i, err := range errs {
		if err != nil {
			for _, r := range c.replicas {
				r.cancel()
				r.lease.Release()
			}
			return nil, fmt.Errorf("cluster: seed %s: %w", c.replicas[i].name, err)
		}
	}
	for _, r := range c.replicas {
		r.applied.Store(lsn)
		go r.run()
	}
	return c, nil
}

// Replicas returns the replica set, fixed after New.
func (c *Cluster) Replicas() []*Replica { return c.replicas }

// CommittedLSN is the primary's replication position — what the router's
// bounded-staleness guard compares replica positions against.
func (c *Cluster) CommittedLSN() uint64 { return c.primary.ReplicationLSN() }

// Status snapshots every replica for metrics and the CLI.
func (c *Cluster) Status() []ReplicaStatus {
	committed := c.CommittedLSN()
	out := make([]ReplicaStatus, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.Status(committed)
	}
	return out
}

// Close stops every replica and releases its retention lease. Safe to call
// more than once.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, r := range c.replicas {
			r.cancel()
		}
		for _, r := range c.replicas {
			<-r.done
			r.sys.Close()
			r.lease.Release()
		}
	})
}
