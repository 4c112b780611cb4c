package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"multirag/internal/linegraph"
	"multirag/internal/wal"
)

// Replication: a replica is recovery that does not stop. It is seeded once at
// a captured replication position (ReplicationSeed) — beside its primary as a
// copy-on-write clone of the primary's published snapshot (SeedReplicaClone),
// elsewhere by decoding a checkpoint body (SeedReplica) — then reads the
// primary's committed WAL records through a wal.Tail (TailWAL) and replays
// each with ReplicaApply — the decode/replay sequence crash recovery runs — so
// its snapshot is byte-identical to the primary's at every position it
// reaches. Each publish advances the position and wakes readers (Published); a
// retention lease keeps the segments a reader still needs through checkpoint
// pruning. Only a durable system has a log to read.

// ErrNotDurable is what the replication calls of a system without a
// write-ahead log return.
var ErrNotDurable = errors.New("core: replicas read the write-ahead log, and this system has none")

// SnapshotHandle is an opaque reference to one immutable snapshot, captured at
// a known replication position. The cluster layer uses it to seed replicas
// (SeedReplicaClone) and to verify them (Digest) without reaching into the
// engine's internals.
type SnapshotHandle struct {
	sn *snapshot
}

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

// ReplicationLSN returns the engine's replication position: the number of
// commit groups ever published (for durable systems, exactly the WAL's next
// LSN; for replicas, the next record they expect to apply). The router's
// staleness guard compares primary and replica positions lock-free.
func (s *System) ReplicationLSN() uint64 { return s.replPos.Load() }

// Published returns the replication position with a channel the next
// publish closes. The channel is read first: a publish that lands between the
// two reads has already closed it, so a reader that finds nothing new below
// the position and then waits on the channel never sleeps through a commit.
func (s *System) Published() (uint64, <-chan struct{}) {
	wake := s.wake.Load().(chan struct{})
	return s.replPos.Load(), wake
}

// setReplicationLSN publishes a replication position and wakes every reader
// waiting on Published. Called under s.mu by each publish.
func (s *System) setReplicationLSN(lsn uint64) {
	s.replPos.Store(lsn)
	close(s.wake.Swap(make(chan struct{})).(chan struct{}))
}

// ServingHandle captures the currently published snapshot.
func (s *System) ServingHandle() SnapshotHandle { return SnapshotHandle{sn: s.snap.Load()} }

// SnapshotDigest is the anti-entropy fingerprint of the currently published
// snapshot — what `multirag recover -verify` prints and what a replica
// compares with the primary's DigestAt.
func (s *System) SnapshotDigest() uint64 { return s.ServingHandle().Digest() }

// ReplicationSeed captures what a new or resyncing replica starts from: a
// copy-on-write clone of the published snapshot, its replication position and
// a WAL retention lease at that position, in one critical section, so no
// checkpoint can prune the segment holding the position between the capture
// and the lease. The clone is taken under the lock every commit clones under,
// because cloning a graph resets ownership flags of the snapshot it clones
// (kg.Graph.Clone). The clone is the caller's alone and seeds exactly one
// replica (SeedReplicaClone): that replica's first apply resets the clone's
// own flags in turn, which no other engine may write. An in-memory system has
// no log to read and returns ErrNotDurable.
func (s *System) ReplicationSeed() (SnapshotHandle, uint64, *WALLease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return SnapshotHandle{}, 0, nil, ErrNotDurable
	}
	lsn := s.replPos.Load()
	cur := s.snap.Load()
	sn := &snapshot{graph: cur.graph.Clone(), index: cur.index.CloneForAppend()}
	return SnapshotHandle{sn: sn}, lsn, s.acquireLeaseLocked(lsn), nil
}

// TailWAL opens a cursor over the log at from, a position the caller holds a
// lease at: a replica's read side.
func (s *System) TailWAL(from uint64) (*wal.Tail, error) {
	if s.dur == nil {
		return nil, ErrNotDurable
	}
	return wal.OpenTail(s.dur.fs, s.dur.dir, from)
}

// Anti-entropy: at every digestEvery-th replication position the primary
// keeps the snapshot it published there, with its digest memoised, and a
// replica about to read the record at such a position first compares its
// own SnapshotDigest with it. The last digestKeep points are kept, so a
// replica up to digestEvery*digestKeep records behind still checks each one.
// Nothing is computed on the commit path: the first replica to ask computes
// the primary's digest, its siblings reuse it, and a primary no replica
// holds a lease on keeps no points.
const (
	digestEvery = 16
	digestKeep  = 16
)

// digestPoint is one kept position and its memoised digest.
type digestPoint struct {
	lsn    uint64
	digest func() uint64
}

// keepDigestPoint records sn, just published, when its position is a
// verification point and a replica reads the log. Called under s.mu.
func (s *System) keepDigestPoint(sn *snapshot) {
	lsn := s.replPos.Load()
	if lsn%digestEvery != 0 || len(s.walLeases) == 0 {
		return
	}
	p := &digestPoint{lsn: lsn, digest: sync.OnceValue(SnapshotHandle{sn: sn}.Digest)}
	s.dur.points[lsn/digestEvery%digestKeep].Store(p)
}

// DigestAt returns the primary's digest at replication position lsn, if lsn
// is a verification point it still keeps (see digestEvery).
func (s *System) DigestAt(lsn uint64) (digest func() uint64, ok bool) {
	if s.dur == nil || lsn%digestEvery != 0 {
		return nil, false
	}
	p := s.dur.points[lsn/digestEvery%digestKeep].Load()
	if p == nil || p.lsn != lsn {
		return nil, false
	}
	return p.digest, true
}

// ReplicaApply replays one committed record onto the serving snapshot and
// publishes the result. It mirrors the committer's replay exactly (clone,
// every part replayed in ticket order, snapshot swap), so a replica that
// applies the primary's records in order stays byte-identical to it at every
// position. The record is decoded straight into the clone, its chunks
// re-embedded as they are decoded (replayRecord); a record that fails to
// decode or replay publishes nothing. Nothing of payload is kept: a caller
// may reuse its buffer once ReplicaApply returns. Safe to call concurrently
// with queries; replays serialize on the replica's own commit lock.
func (s *System) ReplicaApply(payload []byte) error {
	_, err := s.replicaPublish(func(replay func([]byte) error) (int, error) {
		return 1, replay(payload)
	})
	return err
}

// ReplicaApplyTail reads the committed records from t's position up to to, or
// up to the next verification point (digestEvery) if that comes first, and
// replays them as one run: one clone, each record decoded into it as it is
// read, and one publish at the position past the last — recovery's merge of
// a replayed tail, which lands on the state record-by-record replay publishes
// at that position. A replica that has fallen behind catches up without
// paying a clone and a publish per record. It returns how many records it
// applied; on error it applied none, and t may have read past some.
func (s *System) ReplicaApplyTail(t *wal.Tail, to uint64) (int, error) {
	to = min(to, (t.LSN()/digestEvery+1)*digestEvery)
	return s.replicaPublish(func(replay func([]byte) error) (int, error) {
		n := 0
		for t.LSN() < to {
			lsn := t.LSN()
			payload, _, err := t.Next(to)
			if err != nil {
				return 0, fmt.Errorf("core: read WAL record %d: %w", lsn, err)
			}
			if err := replay(payload); err != nil {
				return 0, fmt.Errorf("core: WAL record %d: %w", lsn, err)
			}
			n++
		}
		return n, nil
	})
}

// replicaPublish clones the serving snapshot and hands records a replay
// function that decodes one record into the clone; records replays its run
// of records, in order, and returns how many. Unless it fails or replays none,
// the clone is published at the position past the last of them.
func (s *System) replicaPublish(records func(replay func(payload []byte) error) (int, error)) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	g := cur.graph.Clone()
	ix := cur.index.CloneForAppend()
	sc := getEmbedScratch(ix.Dim())
	defer putEmbedScratch(sc)
	n, err := records(func(payload []byte) error { return replayRecord(payload, g, ix, sc) })
	if err != nil || n == 0 {
		return 0, err
	}
	s.snap.Store(&snapshot{graph: g, sg: linegraph.Build(g), index: ix, gen: cur.gen + 1})
	s.setReplicationLSN(s.replPos.Load() + uint64(n))
	return n, nil
}

// SeedReplicaClone replaces the serving snapshot with h, a clone
// ReplicationSeed took of the primary's published snapshot at replication
// position lsn — replica bootstrap and post-fence resync beside a live
// primary. Nothing is decoded or copied: the replica shares every column page,
// posting list, chunk and string with the primary and builds only its own
// line-graph view. The clone shares the primary's lineage too (package
// lineage), and the primary has always claimed the rows of a record before a
// replica can read it, so the replica's first apply loses the claim and forks:
// it copies the pages and lists it writes, never writing storage the primary
// reads. h must come from ReplicationSeed and seed no other replica.
func (s *System) SeedReplicaClone(h SnapshotHandle, lsn uint64) {
	s.install(&snapshot{graph: h.sn.graph, sg: linegraph.Build(h.sn.graph), index: h.sn.index}, lsn)
}

// SeedReplica replaces the serving snapshot with one decoded from body, a
// checkpoint body captured at the given replication position — a replica
// seeded away from its primary's memory. Decoding runs off-lock (the body is
// private); only the swap serializes with replays.
func (s *System) SeedReplica(body []byte, lsn uint64) error {
	sn, err := s.decodeSnapshot(body)
	if err != nil {
		return err
	}
	s.install(sn, lsn)
	return nil
}

// install publishes sn, a seeded snapshot, at replication position lsn.
func (s *System) install(sn *snapshot, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn.gen = s.snap.Load().gen + 1
	s.snap.Store(sn)
	s.setReplicationLSN(lsn)
}

// Config returns a copy of the system's configuration, so a replica set can build
// replicas whose determinism knobs (model seed, thresholds, store layout)
// match the primary's exactly — the precondition for byte-identical replay.
func (s *System) Config() Config { return s.cfg }

// WALLease pins a WAL retention floor: while held at position L, checkpoint
// pruning keeps every segment containing records >= L, so a replica reading
// the log from L can always go on. Leases on in-memory systems are inert but
// valid.
type WALLease struct {
	s   *System
	lsn uint64
}

func (s *System) acquireLeaseLocked(lsn uint64) *WALLease {
	l := &WALLease{s: s, lsn: lsn}
	if s.walLeases == nil {
		s.walLeases = map[*WALLease]struct{}{}
	}
	s.walLeases[l] = struct{}{}
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
