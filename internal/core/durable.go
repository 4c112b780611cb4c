package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"multirag/internal/extract"
	"multirag/internal/fault"
	"multirag/internal/jsonld"
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
// tail through the same part replay (replayPart) the committer runs, and
// truncates whatever torn frame the crash left behind.
//
// Format 4 (snapshotVersion, recordVersion) is the one format read and
// written: it stores facts only — entities, triples and chunk strings, the
// string columns that repeat from row to row front-coded against the previous
// row (wal.Encoder.Front). What is a pure function of them is derived on load:
// every chunk's vector is re-embedded from its text (retrieval.DecodeIntoStore,
// and replayRecord for a record), and the line graph is a view over the
// graph (linegraph.Build), whose key counts the graph keeps as it decodes and
// replays. A checkpoint says which format it is in its version field, a
// record by how it starts — a record of format 2 or later opens with a 0 tag
// and its version, a format-1 record with its batch count, which is never 0. Any other format is rejected with
// ErrUnsupportedFormat before recovery writes to the directory (DESIGN.md §9
// has the migration policy).
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
// the WAL group record's.
const (
	snapshotVersion = 4
	recordVersion   = 4
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
	if v < snapshotVersion {
		return fmt.Errorf("%w: %s is format %d; open the directory once with a release that still reads format %d (then with later ones, a format at a time) to rewrite it in format %d",
			ErrUnsupportedFormat, what, v, v, snapshotVersion)
	}
	return fmt.Errorf("%w: %s version %d", ErrUnsupportedFormat, what, v)
}

// readVersion reads the version a checkpoint body or WAL record (what)
// opens with, current being the one this release writes and reads. Any other
// version is an error wrapping ErrUnsupportedFormat.
func readVersion(d *wal.Decoder, what string, current uint64) error {
	v := d.Uvarint()
	switch {
	case d.Err() != nil:
		return d.Err()
	case v != current:
		return unsupportedFormat(what, v)
	}
	return nil
}

// durable is the persistence state of a System opened with Open/OpenFS; nil
// for purely in-memory systems.
type durable struct {
	fs  wal.FS
	dir string

	// log, enc and parts (an append's header scratch and its list of
	// pieces) are guarded by System.mu: appends happen inside the commit
	// critical section, rotation inside Checkpoint's locked window, close
	// under the lock in Close. hasCkpt shares the same guard; lastCkpt (the
	// LSN covered by the newest durable checkpoint) and appendErr (the log's
	// latched append failure) are stored under it and read lock-free by
	// DurabilityStatus.
	log       *wal.Log
	enc       wal.Encoder
	parts     [][]byte
	hasCkpt   bool
	lastCkpt  atomic.Uint64
	appendErr atomic.Pointer[error]
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
	// CheckpointLSN is the WAL position covered by the checkpoint that seeded
	// the state (0 when the system started from scratch).
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// RecordsReplayed is how many write-ahead-log records were replayed on
	// top of the checkpoint.
	RecordsReplayed int `json:"records_replayed"`
	// Truncated reports that a torn or corrupt record was found at the log
	// tail and everything from it on was discarded — the signature of a
	// crash mid-commit; the affected batch was never acknowledged.
	Truncated bool `json:"truncated"`
}

// Open opens (or initialises) a durable system in dir: the newest valid
// checkpoint is loaded, the WAL tail is replayed on top of it, torn frames
// are repaired, and the log is reopened for appending. The caller owns the
// returned system's lifecycle and must Close it to take the final checkpoint.
// A checkpoint that fails its check is passed over for the next older one; if
// recovery from that then fails, the error names the one passed over.
func Open(dir string, cfg Config) (*System, *RecoveryInfo, error) {
	return OpenFS(wal.OSFS{}, dir, cfg)
}

// OpenFS is Open over an explicit filesystem — the seam the fault-injection
// suite drives with wal.MemFS.
func OpenFS(fsys wal.FS, dir string, cfg Config) (*System, *RecoveryInfo, error) {
	body, ckptLSN, skipped, err := wal.FindCheckpoint(fsys, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	s, info, err := recoverFrom(fsys, dir, cfg, body, ckptLSN)
	if err != nil && len(skipped) > 0 {
		return nil, nil, fmt.Errorf("core: checkpoint %s is corrupt or unreadable; recovery fell back to LSN %d and failed: %w", skipped[0], ckptLSN, err)
	}
	return s, info, err
}

// recoverFrom is OpenFS after the checkpoint is chosen: body (nil for none)
// covers every record below ckptLSN.
func recoverFrom(fsys wal.FS, dir string, cfg Config, body []byte, ckptLSN uint64) (*System, *RecoveryInfo, error) {
	s := NewSystem(cfg)
	var err error
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
	g, ix := sn.graph, sn.index
	sc := getEmbedScratch(ix.Dim())
	for i, payload := range sr.Records {
		if err = replayRecord(payload, g, ix, sc); err != nil {
			return nil, nil, fmt.Errorf("core: replay WAL record %d: %w", sr.From+uint64(i), err)
		}
	}
	putEmbedScratch(sc)
	log, err := wal.OpenLog(fsys, dir, sr)
	if err != nil {
		return nil, nil, err
	}
	s.snap.Store(&snapshot{graph: g, sg: linegraph.Build(g), index: ix})
	s.replPos.Store(log.NextLSN())
	s.dur = &durable{
		fs:      fsys,
		dir:     dir,
		log:     log,
		hasCkpt: body != nil,
		ckptReq: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.dur.lastCkpt.Store(ckptLSN)
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
	if d.hasCkpt && d.log.NextLSN() == d.lastCkpt.Load() {
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
	d.lastCkpt.Store(lsn)
	d.hasCkpt = true
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
	if d.log.NextLSN()-d.lastCkpt.Load() < uint64(recs) && d.log.ActiveSize() < bytes {
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
	// The header and the file counts are encoded into d.enc and the record
	// is listed in d.parts; the parts themselves are handed to the log where
	// they lie. Neither keeps a reference once the record is written.
	d.parts = recordParts(&d.enc, d.parts, committed)
	_, err := d.log.AppendParts(d.parts)
	d.enc.Reset()
	clear(d.parts)
	if d.parts = d.parts[:0]; cap(d.parts) > scratchRows {
		d.parts = nil // a bulk load's list of thousands of files
	}
	if latched := d.log.Failed(); latched != nil {
		d.appendErr.Store(&latched)
	}
	if errors.Is(err, wal.ErrRecordTooLarge) {
		return fmt.Errorf("the commit group's record is over the WAL's %d-byte record limit; ingest the files in smaller calls: %w", wal.MaxRecordSize, err)
	}
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
// the worker pool.
func (s *System) decodeSnapshot(body []byte) (*snapshot, error) {
	d := wal.NewDecoder(body)
	if err := readVersion(d, "checkpoint", snapshotVersion); err != nil {
		return nil, err
	}
	g, err := kg.DecodeGraph(d)
	if err != nil {
		return nil, err
	}
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	if err := retrieval.DecodeIntoStore(d, ix, s.Workers()); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &snapshot{graph: g, sg: linegraph.Build(g), index: ix}, nil
}

// The group record: the 0 tag and recordVersion, the count of committed
// batches, then per batch, in ticket order, its file count and each file's
// part — its recorded operation stream (extract.Recorder.EncodeTo), then its
// rendered chunks. The string fields that repeat from row to row are
// front-coded (wal.Encoder.Front) against the previous entity, triple or chunk
// of the same part: an entity's type and domain, a triple's subject, object
// entity, source, domain, format and chunk, a chunk's ID, document and source.
// Every part starts from empty values, so a file's part does not depend on
// the rest of its group: stage 1 encodes it (encodeFile) on the worker that
// prepared the file, and the commit path never builds the record — it hands
// the header, the batches' file counts and the parts to the log as they lie
// (wal.Log.AppendParts).

// recordParts lists the pieces of the committed batches' group record in
// order — the header, then each batch's file count and its files' parts —
// into parts, with the header and the counts encoded into e. The result
// aliases e and the batches' parts.
func recordParts(e *wal.Encoder, parts [][]byte, committed []*prepared) [][]byte {
	e.Int(0)
	e.Uvarint(recordVersion)
	e.Int(len(committed))
	for _, p := range committed {
		e.Int(len(p.work))
	}
	b := e.Bytes()
	lo, hi := 0, wal.UvarintSize(0)+wal.UvarintSize(recordVersion)+wal.UvarintSize(uint64(len(committed)))
	for _, p := range committed {
		hi += wal.UvarintSize(uint64(len(p.work)))
		parts = append(parts, b[lo:hi:hi])
		lo = hi
		for i := range p.work {
			parts = append(parts, p.work[i].part)
		}
	}
	return parts
}

// embedScratch is what stage 1 and replay reuse from one file or part to the
// next: the dense row a chunk is embedded into, the recorder a file is
// extracted into, the slab a part's chunks are re-embedded into when no
// prepared rows come with it, the arena a file's chunks are rendered into and
// a part's chunks decoded into, the renderer's buffers, and the chunk views
// of the arena. embedScratches holds one per worker or replayer between uses.
type embedScratch struct {
	row    retrieval.Vector
	rec    extract.Recorder
	rows   retrieval.Sparse
	arena  retrieval.ChunkArena
	render chunkRenderer
	chunks []retrieval.Chunk
}

var embedScratches sync.Pool

// scratchRows is the most rows, and scratchArena the most string bytes, a
// pooled scratch's buffers keep between uses: a steady commit's file holds
// tens of chunks, a bulk load's thousands.
const (
	scratchRows  = 4096
	scratchArena = 1 << 20
)

// getEmbedScratch returns a pooled scratch for embeddings of width dim.
func getEmbedScratch(dim int) *embedScratch {
	sc, _ := embedScratches.Get().(*embedScratch)
	if sc == nil || len(sc.row) != dim {
		sc = &embedScratch{row: make(retrieval.Vector, dim)}
	}
	return sc
}

// putEmbedScratch returns sc to the pool, without buffers that outgrew
// scratchRows or scratchArena. Nothing may still use its slab's rows.
func putEmbedScratch(sc *embedScratch) {
	if sc.rows.Len() > scratchRows || cap(sc.chunks) > scratchRows || cap(sc.arena.Bytes) > scratchArena || cap(sc.render.text) > scratchArena {
		sc.rows, sc.arena, sc.render, sc.chunks = retrieval.Sparse{}, retrieval.ChunkArena{}, chunkRenderer{}, nil
	}
	embedScratches.Put(sc)
}

// renderChunks renders n's chunks into sc's arena and returns views of them,
// which hold one string: until dropChunks, sc.chunks is that view.
func (sc *embedScratch) renderChunks(n *jsonld.Normalized) []retrieval.Chunk {
	sc.arena.Reset()
	sc.render.render(&sc.arena, n, chunkBudget)
	sc.chunks = sc.arena.Chunks(sc.chunks[:0])
	return sc.chunks
}

// dropChunks clears sc's chunk views, so that the pooled scratch pins none of
// their strings.
func (sc *embedScratch) dropChunks() {
	clear(sc.chunks)
	sc.chunks = sc.chunks[:0]
}

// encodeFile embeds a prepared file's chunks and encodes its part of the
// group record — rec's operation stream, then the chunks — into one buffer of
// exactly its size. rows are the chunks' embeddings in sparse form, which the
// commit posts; they are not part of the record. They are embedded into sc's
// slab and copied out at their exact size, so a prepared file keeps no spare
// room.
func encodeFile(rec *extract.Recorder, chunks []retrieval.Chunk, sc *embedScratch) (part []byte, rows retrieval.Sparse) {
	size := rec.EncodedLen() + wal.UvarintSize(uint64(len(chunks)))
	sc.rows.Reset()
	sc.rows.Grow(len(chunks))
	var pc retrieval.Chunk
	for j := range chunks {
		c := &chunks[j]
		sc.rows.Embed(sc.row, c.Text)
		size += wal.FrontSize(pc.ID, c.ID) + wal.FrontSize(pc.DocID, c.DocID) + wal.FrontSize(pc.Source, c.Source) + wal.StringSize(c.Text)
		pc = *c
	}

	var e wal.Encoder
	e.Grow(size)
	rec.EncodeTo(&e)
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
	return e.Bytes(), sc.rows.Clone()
}

// replayRecord decodes one WAL record payload straight into g and ix, part by
// part (replayPart), re-embedding every chunk. On error g and ix hold
// whatever was applied before it and the caller discards them. Nothing of
// payload is kept.
func replayRecord(payload []byte, g *kg.Graph, ix *retrieval.Index, sc *embedScratch) error {
	d := wal.NewDecoder(payload)
	if tag := d.Int(); d.Err() == nil && tag != 0 {
		return unsupportedFormat("WAL record", 1) // format 1 opens with its batch count
	}
	if err := readVersion(d, "WAL record", recordVersion); err != nil {
		return err
	}
	for nb, i := d.Int(), 0; i < nb && d.Err() == nil; i++ {
		for nf, j := d.Int(), 0; j < nf && d.Err() == nil; j++ {
			if err := replayPart(d, g, ix, nil, sc); err != nil {
				return err
			}
		}
	}
	return d.Finish()
}

// replayPart decodes one file's part of a group record from d straight into
// g and ix: its operation stream (extract.Replay), then its chunks, posted
// with rows — the sparse rows stage 1 embedded — or, when rows is nil,
// re-embedded from the decoded texts into sc's slab. It is the one replay
// step the committer, replica apply and recovery share.
//
// The chunks' strings are decoded into sc's arena and become one string per
// part, a single allocation: a chunk's fields are views of it, a field equal
// to the previous chunk's is that chunk's view, and a document ID that begins
// its chunk's ID is that ID's prefix. The string holds only what the store
// keeps for as long as it keeps the chunks, so it pins nothing else.
func replayPart(d *wal.Decoder, g *kg.Graph, ix *retrieval.Index, rows *retrieval.Sparse, sc *embedScratch) error {
	if err := extract.Replay(d, g); err != nil {
		return err
	}
	a := &sc.arena
	a.Reset()
	front := func(prev [2]int) [2]int {
		lo := len(a.Bytes)
		a.Bytes = d.AppendFront(a.Bytes, a.Bytes[prev[0]:prev[1]])
		if bytes.Equal(a.Bytes[lo:], a.Bytes[prev[0]:prev[1]]) {
			a.Bytes = a.Bytes[:lo]
			return prev
		}
		return [2]int{lo, len(a.Bytes)}
	}
	var prev retrieval.ChunkSpans
	for n, k := d.Int(), 0; k < n && d.Err() == nil; k++ {
		c := retrieval.ChunkSpans{ID: front(prev.ID)}
		if c.Doc = front(prev.Doc); c.Doc != prev.Doc && bytes.HasPrefix(a.Bytes[c.ID[0]:c.ID[1]], a.Bytes[c.Doc[0]:c.Doc[1]]) {
			a.Bytes = a.Bytes[:c.Doc[0]]
			c.Doc = [2]int{c.ID[0], c.ID[0] + c.Doc[1] - c.Doc[0]}
		}
		c.Src = front(prev.Src)
		lo := len(a.Bytes)
		a.Bytes = d.AppendString(a.Bytes)
		c.Text = [2]int{lo, len(a.Bytes)}
		a.Spans = append(a.Spans, c)
		prev = c
	}
	if err := d.Err(); err != nil {
		return err
	}
	chunks := a.Chunks(sc.chunks[:0])
	if rows == nil {
		sc.rows.Reset()
		sc.rows.Grow(len(chunks))
		for i := range chunks {
			sc.rows.Embed(sc.row, chunks[i].Text)
		}
		rows = &sc.rows
	}
	sc.chunks = chunks
	err := ix.AppendSparse(chunks, rows)
	sc.dropChunks()
	return err
}
