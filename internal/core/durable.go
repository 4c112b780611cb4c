package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"multirag/internal/extract"
	"multirag/internal/fault"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// Durability: systems opened with Open/OpenFS write one WAL record per commit
// group — the committed batches' recorded operation streams and their
// rendered chunks — fsync'd BEFORE the group's snapshot is published, so an
// acknowledged Ingest can never be lost. A background checkpointer folds the
// log into a serialized snapshot (graph + retrieval store) once it crosses a
// record-count or byte threshold: it rotates the log first, so every segment
// below the rotation point is fully covered by the checkpoint written against
// the state at that same LSN, and only then prunes covered segments and stale
// checkpoints. Recovery loads the newest valid checkpoint, replays the WAL
// tail through the same recorder-replay + BuildDelta path the committer runs,
// and truncates whatever torn frame the crash left behind.
//
// Format 4 (snapshotVersion, recordVersion) is the format written: it stores
// facts only — entities, triples and chunk strings, the string columns that
// repeat from row to row front-coded against the previous row
// (wal.Encoder.Front). What is a pure function of them is derived on load:
// every chunk's vector is re-embedded from its text (retrieval.DecodeIntoStore,
// and decodeGroupRecord for a record), and the line graph is rebuilt from the
// graph (linegraph.Build, BuildDelta on replay). Format 3 is still read,
// through the same decoders: it also stored every vector and the line graph,
// and those sections are read past by their framing alone (retrieval.SkipVector,
// skipLineGraph) and derived like format 4's. A format-3 directory migrates by
// being opened once: new records are appended in format 4 behind the format-3
// ones, and the next checkpoint rewrites the state in format 4. Formats 1
// (dense vectors) and 2 (strings not front-coded) are no longer read; a
// checkpoint says which format it is in its version field, a record by how it
// starts — a record of format 2 or later opens with a 0 tag and its version, a
// format-1 record with its batch count, which is never 0. Anything else is
// rejected with ErrUnsupportedFormat before recovery writes to the directory.
//
// Not covered: destructive graph mutation outside the logged ingest path (the
// perturbation harness mutates the served graph in place and calls RebuildSG)
// is invisible to the WAL — durable deployments must not use it between
// checkpoint and crash.

// Default background-checkpoint thresholds (Config.CheckpointRecords /
// Config.CheckpointBytes when unset).
const (
	DefaultCheckpointRecords = 256
	DefaultCheckpointBytes   = 8 << 20
)

// snapshotVersion versions the checkpoint body layout; recordVersion versions
// the WAL group record's. vectorVersion is the one earlier version of both
// that is still read: the last that stored vectors and the line graph.
const (
	snapshotVersion = 4
	recordVersion   = 4
	vectorVersion   = 3
)

// ErrUnsupportedFormat reports a checkpoint body or WAL record in an on-disk
// format this release does not read. Open, ReplicaApply and SeedReplica wrap
// it; a directory that fails Open with it is left as it was found.
var ErrUnsupportedFormat = errors.New("core: unsupported on-disk format")

// unsupportedFormat is the error for a checkpoint body or WAL record (what)
// written in format v. A directory of an older format migrates one format at
// a time, each by being opened once with a release that reads it: that
// release's final checkpoint rewrites the state in the format it writes.
func unsupportedFormat(what string, v uint64) error {
	if v < vectorVersion {
		return fmt.Errorf("%w: %s is format %d; open the directory once with a release that still reads format %d (then with later ones, a format at a time) to rewrite it in format %d",
			ErrUnsupportedFormat, what, v, v, vectorVersion)
	}
	return fmt.Errorf("%w: %s version %d", ErrUnsupportedFormat, what, v)
}

// readVersion reads the version a checkpoint body or WAL record (what)
// opens with, current being the one this release writes. It returns the
// version, or an error wrapping ErrUnsupportedFormat for one this release
// does not read.
func readVersion(d *wal.Decoder, what string, current uint64) (uint64, error) {
	v := d.Uvarint()
	switch {
	case d.Err() != nil:
		return 0, d.Err()
	case v != current && v != vectorVersion:
		return 0, unsupportedFormat(what, v)
	}
	return v, nil
}

// durable is the persistence state of a System opened with Open/OpenFS; nil
// for purely in-memory systems.
type durable struct {
	fs  wal.FS
	dir string

	// log and enc are guarded by System.mu: appends happen inside the commit
	// critical section, rotation inside Checkpoint's locked window, close
	// under the lock in Close. lastCkpt/hasCkpt share the same guard.
	log      *wal.Log
	enc      wal.Encoder
	lastCkpt uint64 // LSN covered by the newest durable checkpoint
	hasCkpt  bool
	// points are the kept verification points (DigestAt); stored under
	// System.mu, read lock-free by replicas.
	points [digestKeep]atomic.Pointer[digestPoint]

	// ckptMu serializes whole checkpoint cycles (rotate → serialize → write →
	// prune) across the background loop, explicit Checkpoint calls and the
	// final one in Close.
	ckptMu    sync.Mutex
	ckptReq   chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// RecoveryInfo summarises what Open found on disk.
type RecoveryInfo struct {
	// CheckpointLSN is the LSN covered by the checkpoint that seeded the
	// state (0 when the system started from scratch).
	CheckpointLSN uint64
	// RecordsReplayed is how many WAL records were replayed on top of it.
	RecordsReplayed int
	// Truncated reports that a torn or corrupt frame was found at the log
	// tail and everything from it on was discarded (a crash mid-append; the
	// affected group was never acknowledged).
	Truncated bool
}

// Open opens (or initialises) a durable system in dir: the newest valid
// checkpoint is loaded, the WAL tail is replayed on top of it, torn frames
// are repaired, and the log is reopened for appending. The caller owns the
// returned system's lifecycle and must Close it to take the final checkpoint.
func Open(dir string, cfg Config) (*System, *RecoveryInfo, error) {
	return OpenFS(wal.OSFS{}, dir, cfg)
}

// OpenFS is Open over an explicit filesystem — the seam the fault-injection
// suite drives with wal.MemFS.
func OpenFS(fsys wal.FS, dir string, cfg Config) (*System, *RecoveryInfo, error) {
	s := NewSystem(cfg)
	body, ckptLSN, err := wal.LoadCheckpoint(fsys, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	sn := s.snap.Load() // the fresh empty snapshot NewSystem published
	if body != nil {
		if sn, err = s.decodeSnapshot(body); err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint at LSN %d: %w", ckptLSN, err)
		}
	}
	sr, err := wal.Scan(fsys, dir, ckptLSN)
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{
		CheckpointLSN:   ckptLSN,
		RecordsReplayed: len(sr.Records),
		Truncated:       sr.Truncated,
	}
	g, sg, ix := sn.graph, sn.sg, sn.index
	var newIDs []string
	sc := getEmbedScratch(ix.Dim())
	for i, payload := range sr.Records {
		sc.rows.Reset()
		batches, err := decodeGroupRecord(payload, sc)
		if err == nil {
			newIDs, err = replayRecord(g, ix, batches, newIDs)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: replay WAL record %d: %w", sr.From+uint64(i), err)
		}
	}
	putEmbedScratch(sc)
	if len(newIDs) > 0 && !s.cfg.DisableMKA {
		// One merged delta over the whole replayed tail. The replay grew the
		// checkpoint's graph in place, so sg — a view over it — already
		// answers lookups from the tail but still holds the checkpoint's
		// counts. BuildDelta recounts each touched key once against the
		// final graph, taking its old size as the final size minus the
		// key's replayed triples, which lands on the counts the per-record
		// deltas the committer ran would have reached.
		sg = linegraph.BuildDelta(sg, g, newIDs)
	}
	log, err := wal.OpenLog(fsys, dir, sr)
	if err != nil {
		return nil, nil, err
	}
	s.snap.Store(&snapshot{graph: g, sg: sg, index: ix})
	s.replPos.Store(log.NextLSN())
	s.dur = &durable{
		fs:       fsys,
		dir:      dir,
		log:      log,
		lastCkpt: ckptLSN,
		hasCkpt:  body != nil,
		ckptReq:  make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.checkpointLoop()
	return s, info, nil
}

// Close drains the durability machinery: it stops the background
// checkpointer, takes a final checkpoint (so a restart recovers from the
// snapshot alone, with an empty tail to replay) and closes the log. The
// serving layer calls it after draining in-flight ingest; an Ingest racing
// Close fails its WAL append and is not acknowledged. Close is idempotent;
// on an in-memory system it is a no-op.
func (s *System) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	var err error
	d.closeOnce.Do(func() {
		close(d.stop)
		<-d.done
		err = s.Checkpoint()
		s.mu.Lock()
		if cerr := d.log.Close(); err == nil {
			err = cerr
		}
		s.mu.Unlock()
	})
	return err
}

// Checkpoint writes a durable snapshot of the current serving state and
// prunes the log below it. The rotate-then-serialize order under the write
// lock pins a consistent (snapshot, LSN) pair: every record below the
// rotation point is already folded into the snapshot about to be written, so
// pruning those segments after the checkpoint is durable can never widen a
// recovery gap. Serialization itself runs off-lock against the immutable
// snapshot, so commits proceed while the checkpoint body is encoded.
func (s *System) Checkpoint() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	s.mu.Lock()
	if d.hasCkpt && d.log.NextLSN() == d.lastCkpt {
		s.mu.Unlock()
		return nil // nothing committed since the last checkpoint
	}
	if err := d.log.Rotate(); err != nil {
		s.mu.Unlock()
		return err
	}
	lsn := d.log.NextLSN()
	sn := s.snap.Load()
	s.mu.Unlock()

	if err := wal.WriteCheckpoint(d.fs, d.dir, lsn, snapshotBody(sn)); err != nil {
		return err
	}
	s.mu.Lock()
	d.lastCkpt, d.hasCkpt = lsn, true
	// Pruning honours the lowest replica lease: segments holding records a
	// lagging replica has not read yet survive the checkpoint.
	floor := s.walLeaseFloorLocked(lsn)
	s.mu.Unlock()
	return wal.RemoveBelow(d.fs, d.dir, lsn, floor)
}

// checkpointLoop is the background checkpointer: it waits for threshold
// triggers from the commit path and folds the log. A failed attempt is
// retried on the next trigger (the thresholds stay exceeded), and Close takes
// a final checkpoint whose error does surface.
func (s *System) checkpointLoop() {
	d := s.dur
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		case <-d.ckptReq:
			_ = s.Checkpoint()
		}
	}
}

// maybeRequestCheckpoint pokes the background checkpointer when the log has
// outgrown the configured thresholds. Called under System.mu right after a
// publish; the send is non-blocking, so triggers coalesce while a checkpoint
// is in flight.
func (d *durable) maybeRequestCheckpoint(cfg *Config) {
	recs := cfg.CheckpointRecords
	if recs <= 0 {
		recs = DefaultCheckpointRecords
	}
	bytes := cfg.CheckpointBytes
	if bytes <= 0 {
		bytes = DefaultCheckpointBytes
	}
	if d.log.NextLSN()-d.lastCkpt < uint64(recs) && d.log.ActiveSize() < bytes {
		return
	}
	select {
	case d.ckptReq <- struct{}{}:
	default:
	}
}

// appendGroup durably logs one commit group's committed batches. Called under
// System.mu before the group's snapshot is published: a batch is acknowledged
// only after its record is fsync'd, and recovery replays a record only if it
// was fully written — the two halves of the no-lost-acks contract.
func (d *durable) appendGroup(committed []*prepared) error {
	// Chaos seam: an injected error here exercises the not-acknowledged path
	// (group fails, nothing publishes) without latching the log — the
	// distinction between a request-scoped append failure and a poisoned
	// directory. Latch behaviour itself is driven through the MemFS OnOp hook
	// so the real latch logic runs.
	if err := fault.Inject(context.Background(), fault.PointWALAppend); err != nil {
		return err
	}
	// Once appended the record lives in the log; Reset lets go of a buffer a
	// bulk load's record outgrew.
	defer d.enc.Reset()
	encodeGroupRecord(&d.enc, committed)
	_, err := d.log.Append(d.enc.Bytes())
	return err
}

// encodeSnapshot serializes one immutable snapshot as a checkpoint body: the
// graph and the store's chunks. The line graph and the vectors are derived on
// decode.
func encodeSnapshot(e *wal.Encoder, sn *snapshot) {
	e.Uvarint(snapshotVersion)
	sn.graph.EncodeTo(e)
	retrieval.EncodeStore(e, sn.index)
}

// snapshotBody returns the whole checkpoint body of sn as one slice, for the
// callers that need it in memory (checkpoint CRC + write, replica seeding). A
// counting pass through a discarding stream encoder sizes the buffer exactly
// first: growing the body (6.7 MB for the end-to-end benchmark's corpus)
// from nothing by doubling left about five times its size in garbage per
// call.
func snapshotBody(sn *snapshot) []byte {
	count := wal.NewStreamEncoder(io.Discard)
	encodeSnapshot(count, sn)
	var e wal.Encoder
	e.Grow(count.Len())
	encodeSnapshot(&e, sn)
	return e.Bytes()
}

// decodeSnapshot rebuilds a snapshot from a checkpoint body. The line graph
// is a view over the decoded graph and the store's texts are re-embedded on
// the worker pool; a format-3 body's stored line graph and vectors are read
// past.
func (s *System) decodeSnapshot(body []byte) (*snapshot, error) {
	d := wal.NewDecoder(body)
	v, err := readVersion(d, "checkpoint", snapshotVersion)
	if err != nil {
		return nil, err
	}
	g, err := kg.DecodeGraph(d)
	if err != nil {
		return nil, err
	}
	var sg *linegraph.SG
	if !s.cfg.DisableMKA && g.NumTriples() > 0 {
		sg = linegraph.Build(g)
	}
	if v == vectorVersion && d.Bool() {
		skipLineGraph(d)
	}
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	if err := retrieval.DecodeIntoStore(d, ix, s.Workers(), v == vectorVersion); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &snapshot{graph: g, sg: sg, index: ix}, nil
}

// skipLineGraph reads past a format-3 checkpoint's line graph — each
// homologous node as its member count and triple handles, the isolated points
// as a count and triple handles, then the largest group's size — by its
// framing alone; a count the bytes left cannot back fails once they run out.
// The line graph is built from the graph instead.
func skipLineGraph(d *wal.Decoder) {
	nodes := d.Int()
	for i := 0; i < nodes && d.Err() == nil; i++ {
		d.SkipUvarints(d.Int())
	}
	d.SkipUvarints(d.Int())
	d.Int()
}

// The group record: the 0 tag and recordVersion, the count of committed
// batches, then per batch, in ticket order, its file count and each file's
// part — its recorded operation stream, then its rendered chunks. The string
// fields that repeat from row to row are front-coded (wal.Encoder.Front)
// against the previous entity, triple or chunk of the same part: an entity's
// type and domain, a triple's subject, object entity, source, domain, format
// and chunk, a chunk's ID, document and source. Every part starts from empty
// values, so a file's part does not depend on the rest of its group: stage 1
// encodes it (encodeFile) on the worker that prepared the file, and the
// commit path only concatenates. A format-3 record also carries each chunk's
// vector behind its text, which decoding reads past.

// encodeGroupRecord serializes the committed batches of one commit group, in
// ticket order, as one WAL record payload: the header, then every batch's
// file count and its files' parts, into a buffer sized for the record first.
func encodeGroupRecord(e *wal.Encoder, committed []*prepared) {
	size := wal.UvarintSize(0) + wal.UvarintSize(recordVersion) + wal.UvarintSize(uint64(len(committed)))
	for _, p := range committed {
		size += wal.UvarintSize(uint64(len(p.work)))
		for i := range p.work {
			size += len(p.work[i].part)
		}
	}
	e.Grow(size)
	e.Int(0)
	e.Uvarint(recordVersion)
	e.Int(len(committed))
	for _, p := range committed {
		e.Int(len(p.work))
		for i := range p.work {
			e.Raw(p.work[i].part)
		}
	}
}

// embedScratch is what embedding reuses from one file or record to the next:
// the dense row a chunk is embedded into, the op stream of the file
// encodeFile is encoding, and the slab decodeGroupRecord re-embeds a record's
// chunks into. embedScratches holds one per worker or replica between uses.
type embedScratch struct {
	row  retrieval.Vector
	ops  wal.Encoder
	rows retrieval.Sparse
}

var embedScratches sync.Pool

// scratchRows is the most rows a pooled scratch's slab keeps between
// records: a steady commit's record holds tens of chunks, a bulk load's the
// whole corpus.
const scratchRows = 4096

// getEmbedScratch returns a pooled scratch for embeddings of width dim.
func getEmbedScratch(dim int) *embedScratch {
	sc, _ := embedScratches.Get().(*embedScratch)
	if sc == nil || len(sc.row) != dim {
		sc = &embedScratch{row: make(retrieval.Vector, dim)}
	}
	return sc
}

// putEmbedScratch returns sc to the pool, without a slab that outgrew
// scratchRows. Nothing may still use its slab's rows.
func putEmbedScratch(sc *embedScratch) {
	if sc.rows.Len() > scratchRows {
		sc.rows = retrieval.Sparse{}
	}
	embedScratches.Put(sc)
}

// encodeFile embeds a prepared file's chunks and encodes its part of the
// group record — rec's operation stream, then the chunks — into one buffer of
// exactly its size. rows are the chunks' embeddings in sparse form, which the
// commit posts; they are not part of the record. The op stream is built in a
// pooled scratch first, so part is sized before it is written.
func encodeFile(rec *extract.Recorder, chunks []retrieval.Chunk, dim int) (part []byte, rows retrieval.Sparse) {
	sc := getEmbedScratch(dim)
	defer putEmbedScratch(sc)
	sc.ops.Reset()
	var prevTyp, prevDomain string
	var prev kg.Fact
	rec.ForEachOp(
		func(name, typ, domain string) {
			sc.ops.Bool(true)
			sc.ops.String(name)
			sc.ops.Front(prevTyp, typ)
			sc.ops.Front(prevDomain, domain)
			prevTyp, prevDomain = typ, domain
		},
		func(t kg.Fact) {
			sc.ops.Bool(false)
			sc.ops.Front(prev.Subject, t.Subject)
			sc.ops.String(t.Predicate)
			sc.ops.String(t.Object)
			sc.ops.Front(prev.ObjectEntity, t.ObjectEntity)
			sc.ops.Front(prev.Source, t.Source)
			sc.ops.Front(prev.Domain, t.Domain)
			sc.ops.Front(prev.Format, t.Format)
			sc.ops.Front(prev.ChunkID, t.ChunkID)
			sc.ops.F64(t.Weight)
			prev = t
		})
	size := wal.UvarintSize(uint64(rec.NumOps())) + len(sc.ops.Bytes()) + wal.UvarintSize(uint64(len(chunks)))
	rows.Grow(len(chunks))
	var pc retrieval.Chunk
	for j := range chunks {
		c := &chunks[j]
		rows.Embed(sc.row, c.Text)
		size += wal.FrontSize(pc.ID, c.ID) + wal.FrontSize(pc.DocID, c.DocID) + wal.FrontSize(pc.Source, c.Source) + wal.StringSize(c.Text)
		pc = *c
	}

	var e wal.Encoder
	e.Grow(size)
	e.Int(rec.NumOps())
	e.Raw(sc.ops.Bytes())
	e.Int(len(chunks))
	pc = retrieval.Chunk{}
	for j := range chunks {
		c := &chunks[j]
		e.Front(pc.ID, c.ID)
		e.Front(pc.DocID, c.DocID)
		e.Front(pc.Source, c.Source)
		e.String(c.Text)
		pc = *c
	}
	return e.Bytes(), rows
}

// minStoredChunk is the fewest bytes a chunk takes in a record: three
// front-coded fields (a prefix length and a suffix length each) and the
// text's length.
const minStoredChunk = 7

// decodeGroupRecord rebuilds a commit group's batches from a WAL record
// payload, of this release's format or format 3, and re-embeds every chunk
// onto the end of sc's slab: each file's rows are a view of it
// (retrieval.Sparse.Rows), valid until the slab is reset, so the records of
// one run can be decoded into it one after another. The op streams are fed back through a fresh
// Recorder's AddEntity/AddTriple — the same validation the original
// extraction passed — so a record that somehow decodes but violates an
// invariant errors instead of panicking downstream. Nothing of payload is
// kept. The string fields that repeat across rows — the front-coded ones, a
// triple's predicate and object — are interned (wal.Decoder.Front,
// Interned). Every count is trusted for a preallocation only as far as the
// bytes left could back it.
func decodeGroupRecord(payload []byte, sc *embedScratch) ([][]fileWork, error) {
	d := wal.NewDecoder(payload)
	if tag := d.Int(); d.Err() == nil && tag != 0 {
		return nil, unsupportedFormat("WAL record", 1) // format 1 opens with its batch count
	}
	v, err := readVersion(d, "WAL record", recordVersion)
	if err != nil {
		return nil, err
	}
	nb := d.Int()
	batches := make([][]fileWork, 0, min(nb, d.Remaining()))
	for i := 0; i < nb && d.Err() == nil; i++ {
		nf := d.Int()
		files := make([]fileWork, 0, min(nf, d.Remaining()))
		for j := 0; j < nf && d.Err() == nil; j++ {
			rec := extract.NewRecorder()
			var prevTyp, prevDomain string
			var prev kg.Fact
			nOps := d.Int()
			for k := 0; k < nOps && d.Err() == nil; k++ {
				if d.Bool() {
					name := d.String()
					prevTyp = d.Front(prevTyp)
					prevDomain = d.Front(prevDomain)
					rec.AddEntity(name, prevTyp, prevDomain)
					continue
				}
				t := kg.Fact{
					Subject:      d.Front(prev.Subject),
					Predicate:    d.Interned(),
					Object:       d.Interned(),
					ObjectEntity: d.Front(prev.ObjectEntity),
					Source:       d.Front(prev.Source),
					Domain:       d.Front(prev.Domain),
					Format:       d.Front(prev.Format),
					ChunkID:      d.Front(prev.ChunkID),
					Weight:       d.F64(),
				}
				if d.Err() != nil {
					break
				}
				if _, err := rec.AddTriple(t); err != nil {
					return nil, err
				}
				prev = t
			}
			f := fileWork{rec: rec}
			nChunks := d.Int()
			f.chunks = make([]retrieval.Chunk, 0, min(nChunks, d.Remaining()/minStoredChunk))
			var pc retrieval.Chunk
			for k := 0; k < nChunks && d.Err() == nil; k++ {
				c := retrieval.Chunk{ID: d.Front(pc.ID), DocID: d.Front(pc.DocID), Source: d.Front(pc.Source), Text: d.String()}
				if v == vectorVersion {
					retrieval.SkipVector(d)
				}
				pc = c
				f.chunks = append(f.chunks, c)
			}
			files = append(files, f)
		}
		batches = append(batches, files)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	n := 0
	for _, files := range batches {
		for j := range files {
			n += len(files[j].chunks)
		}
	}
	sc.rows.Grow(n)
	for _, files := range batches {
		for j := range files {
			lo := sc.rows.Len()
			for _, c := range files[j].chunks {
				sc.rows.Embed(sc.row, c.Text)
			}
			files[j].rows = sc.rows.Rows(lo, sc.rows.Len())
		}
	}
	return batches, nil
}

// replayRecord replays one decoded WAL record onto the recovery state — every
// batch's recorders in ticket order, the chunks into the store — and appends
// the record's new triple IDs to newIDs. The line-graph delta is left to the
// caller: recovery folds the whole replayed tail in one BuildDelta, per-tail
// instead of per-record, because groups only ever need their state as of the
// last record that touched them.
func replayRecord(g *kg.Graph, ix *retrieval.Index, batches [][]fileWork, newIDs []string) ([]string, error) {
	var err error
	for _, files := range batches {
		if newIDs, err = replayFiles(g, ix, files, newIDs); err != nil {
			return newIDs, err
		}
	}
	return newIDs, nil
}

// replayFiles replays files in order onto g and ix — each file's recorder,
// then its chunks with their sparse rows — appending the new triple IDs to
// ids. It is the one replay step the committer, replica apply and recovery
// share.
func replayFiles(g *kg.Graph, ix *retrieval.Index, files []fileWork, ids []string) ([]string, error) {
	for i := range files {
		f := &files[i]
		var err error
		if ids, err = f.rec.ReplayAppend(g, ids); err != nil {
			return ids, err
		}
		if err := ix.AppendSparse(f.chunks, &f.rows); err != nil {
			return ids, err
		}
	}
	return ids, nil
}
