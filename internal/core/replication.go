package core

import (
	"fmt"
	"hash/fnv"

	"multirag/internal/linegraph"
	"multirag/internal/wal"
)

// Replication: a System can ship every committed group's WAL record, in
// commit order, to an attached ReplicationSink. The record payload is exactly
// what the durability layer appends to the log (encodeGroupRecord), so a
// replica that replays the stream through ReplicaApply — the same
// decode/replay sequence crash recovery runs — reconstructs a snapshot that
// is byte-identical to the primary's at every shipped position. In-memory
// primaries ship too: the record is encoded for the wire even when no log
// exists, and positions count published commit groups exactly as WAL LSNs do.

// SnapshotHandle is an opaque reference to one immutable published snapshot,
// captured at a known replication position. The cluster layer uses it to seed
// replicas (Encode) and to verify them (Digest) without reaching into the
// engine's internals.
type SnapshotHandle struct {
	sn *snapshot
}

// IsZero reports whether the handle references no snapshot.
func (h SnapshotHandle) IsZero() bool { return h.sn == nil }

// Encode serializes the referenced snapshot in the checkpoint body format.
// The snapshot is immutable, so Encode is safe at any time and never blocks
// the commit path.
func (h SnapshotHandle) Encode() []byte { return snapshotBody(h.sn) }

// Digest hashes the serialized snapshot — the anti-entropy fingerprint two
// engines at the same replication position can compare. Byte-identical
// snapshots (the replication invariant) digest identically. The body is
// streamed into the hash in encoder-buffer-sized pieces and never exists as
// one slice; FNV over the pieces is FNV over their concatenation, so the
// value is the hash of exactly what Encode returns.
func (h SnapshotHandle) Digest() uint64 {
	f := fnv.New64a()
	e := wal.NewStreamEncoder(f)
	encodeSnapshot(e, h.sn)
	_ = e.Flush() // a hash.Hash never returns a write error
	return f.Sum64()
}

// ReplicationSink receives every committed group's record. ShipRecord is
// called under the engine's commit lock, after the group's snapshot has
// published, in commit order: lsn is the record's position (records ever
// committed before it), payload is the caller-owned encoded record, and after
// references the snapshot the record produced. Implementations must be fast
// and non-blocking — enqueue and return; a sink that cannot keep up must drop
// and let the receiver detect the gap, never stall the primary.
type ReplicationSink interface {
	ShipRecord(lsn uint64, payload []byte, after SnapshotHandle)
}

// AttachReplication registers sink and atomically captures the current state:
// the published snapshot and the replication position the next shipped record
// will carry. No commit can fall between the capture and the subscription, so
// a replica seeded from the returned handle and fed every subsequent record
// misses nothing. Only one sink may be attached at a time.
func (s *System) AttachReplication(sink ReplicationSink) (SnapshotHandle, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replSink != nil {
		return SnapshotHandle{}, 0, fmt.Errorf("core: a replication sink is already attached")
	}
	s.replSink = sink
	return SnapshotHandle{sn: s.snap.Load()}, s.replPos.Load(), nil
}

// DetachReplication removes the attached sink. Records committed after the
// call are no longer shipped.
func (s *System) DetachReplication() {
	s.mu.Lock()
	s.replSink = nil
	s.mu.Unlock()
}

// ReplicationLSN returns the engine's replication position: the number of
// commit groups ever published (for durable systems, exactly the WAL's next
// LSN; for replicas, the next record they expect to apply). The router's
// staleness guard compares primary and replica positions lock-free.
func (s *System) ReplicationLSN() uint64 { return s.replPos.Load() }

// ServingHandle captures the currently published snapshot.
func (s *System) ServingHandle() SnapshotHandle { return SnapshotHandle{sn: s.snap.Load()} }

// SnapshotDigest is the anti-entropy fingerprint of the currently published
// snapshot — what `multirag recover -verify` prints and what replicas compare
// against the primary's digest markers.
func (s *System) SnapshotDigest() uint64 { return s.ServingHandle().Digest() }

// shipGroup advances the replication position for one published commit group
// and ships its record to the attached sink, if any. Called under s.mu, after
// the snapshot swap, by the group committer. For durable systems the position
// is re-synced to the log (one record was just appended); in-memory systems
// count groups themselves. The payload handed to the sink is always a private
// copy — the durability encoder is reused on the next commit.
func (s *System) shipGroup(committed []*prepared) {
	lsn := s.replPos.Load()
	s.replPos.Store(lsn + 1)
	if s.dur != nil {
		// Shipping is the last reader of the group's record: Reset lets go of
		// a buffer that a bulk load's record outgrew.
		defer s.dur.enc.Reset()
	}
	sink := s.replSink
	if sink == nil {
		return
	}
	var payload []byte
	if s.dur != nil {
		payload = append([]byte(nil), s.dur.enc.Bytes()...)
	} else {
		var e wal.Encoder
		if err := encodeGroupRecord(&e, committed); err != nil {
			// Unserializable batches exist only in tests that substitute fake
			// replayers. Skipping the ship leaves a gap the replica detects by
			// LSN and resolves with a resync — the same path a dropped frame
			// takes.
			return
		}
		payload = e.Bytes()
	}
	sink.ShipRecord(lsn, payload, SnapshotHandle{sn: s.snap.Load()})
}

// ReplicaApply replays one shipped record onto the serving snapshot and
// publishes the result — the replica half of the feed. It mirrors the
// committer's replay exactly (clone, recorder replay in ticket order,
// embedded-chunk append, one line-graph delta, snapshot swap), so a replica
// that applies the primary's records in order stays byte-identical to it at
// every position. Safe to call concurrently with queries; replays serialize
// on the replica's own commit lock.
func (s *System) ReplicaApply(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	g := cur.graph.Clone()
	ix := cur.index.CloneForAppend()
	newIDs, err := s.applyRecovered(g, ix, payload, nil)
	if err != nil {
		return err
	}
	next := &snapshot{graph: g, index: ix, sg: cur.sg, gen: cur.gen + 1}
	if !s.cfg.DisableMKA {
		next.sg = linegraph.BuildDelta(cur.sg, g, newIDs)
	}
	s.snap.Store(next)
	s.replPos.Store(s.replPos.Load() + 1)
	return nil
}

// SeedReplica replaces the serving snapshot with a decoded one captured at
// the given replication position — replica bootstrap and post-fence resync.
// Decoding runs off-lock (the body is private); only the swap serializes with
// replays.
func (s *System) SeedReplica(body []byte, lsn uint64) error {
	sn, err := s.decodeSnapshot(body)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sn.gen = s.snap.Load().gen + 1
	s.snap.Store(sn)
	s.replPos.Store(lsn)
	return nil
}

// Config returns a copy of the system's configuration, so a cluster can build
// replicas whose determinism knobs (model seed, thresholds, store layout)
// match the primary's exactly — the precondition for byte-identical replay.
func (s *System) Config() Config { return s.cfg }

// WALLease pins a WAL retention floor: while held at position L, checkpoint
// pruning keeps every segment containing records >= L, so a reader still
// below L (a lagging replication feed) can always replay forward. Leases on
// in-memory systems are inert but valid.
type WALLease struct {
	s   *System
	lsn uint64
}

// AcquireWALLease registers a retention floor at lsn.
func (s *System) AcquireWALLease(lsn uint64) *WALLease {
	l := &WALLease{s: s, lsn: lsn}
	s.mu.Lock()
	if s.walLeases == nil {
		s.walLeases = map[*WALLease]struct{}{}
	}
	s.walLeases[l] = struct{}{}
	s.mu.Unlock()
	return l
}

// Advance raises the lease's floor (it never lowers; retention only relaxes).
func (l *WALLease) Advance(lsn uint64) {
	l.s.mu.Lock()
	if lsn > l.lsn {
		l.lsn = lsn
	}
	l.s.mu.Unlock()
}

// Release drops the lease; its floor no longer constrains pruning.
func (l *WALLease) Release() {
	l.s.mu.Lock()
	delete(l.s.walLeases, l)
	l.s.mu.Unlock()
}

// walLeaseFloorLocked returns the lowest held lease floor, capped at hi.
// Callers hold s.mu.
func (s *System) walLeaseFloorLocked(hi uint64) uint64 {
	floor := hi
	for l := range s.walLeases {
		if l.lsn < floor {
			floor = l.lsn
		}
	}
	return floor
}
