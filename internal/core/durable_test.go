package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

const durDir = "data"

func durTestConfig() Config {
	return Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0, BaseHallucination: 0.02, ConflictSensitivity: 0.6}}
}

// snapBytes is the recovery-equivalence oracle: the snapshot's checkpoint
// body, which serializes deterministically (handle order, insertion order),
// followed by a dump of the state every load derives instead of storing
// (derivedState), so two systems whose snapBytes are byte-identical hold
// identical published state — vectors and line graph included.
func snapBytes(s *System) []byte {
	var e wal.Encoder
	sn := s.snap.Load()
	encodeSnapshot(&e, sn)
	return append(append([]byte(nil), e.Bytes()...), derivedState(sn)...)
}

// derivedState dumps what a checkpoint body does not hold: every row's vector
// bit for bit, as ForEachEmbedded gathers it back out of the posting lists,
// and the line graph — whether there is one, its statistics, every
// homologous node in key order with its header and each member triple's ID
// and source, and the isolated points.
func derivedState(sn *snapshot) []byte {
	var e wal.Encoder
	sn.index.ForEachEmbedded(func(c retrieval.Chunk, v retrieval.Vector) {
		e.String(c.ID)
		for _, x := range v {
			e.Uvarint(uint64(math.Float32bits(x)))
		}
	})
	sg := sn.sg
	e.Bool(sg != nil)
	if sg == nil {
		return e.Bytes()
	}
	st := sg.ComputeStats()
	e.Int(st.HomologousNodes)
	e.Int(st.Isolated)
	walk := walkKeys(sg.Graph())
	keys := slices.Sorted(maps.Keys(walk.nodes))
	for _, key := range keys {
		subj, pred, _ := strings.Cut(key, "\x00")
		n, _ := sg.Lookup(subj, pred)
		e.String(n.Key)
		e.String(n.SubjectID)
		e.String(n.Name)
		e.Int(n.Num)
		members := sg.MemberTriples(n)
		e.Int(len(members))
		for _, t := range members {
			e.String(kg.TripleID(t.Handle()))
			e.String(t.Source)
		}
	}
	for _, id := range walk.isolated {
		e.String(id)
	}
	return e.Bytes()
}

// requireDerivedEqual fails unless got derives the same vectors and line
// graph as want holds.
func requireDerivedEqual(t *testing.T, got, want *System) {
	t.Helper()
	if !bytes.Equal(derivedState(got.snap.Load()), derivedState(want.snap.Load())) {
		t.Fatal("derived state (vectors, line graph) differs")
	}
}

// seqBatches is the scripted ingest sequence the recovery tests replay: the
// case-study corpus split into three sequential commits.
func seqBatches() [][]adapter.RawFile {
	files := caseStudyFiles()
	return [][]adapter.RawFile{files[:2], files[2:3], files[3:]}
}

// openDurable opens a durable system on fsys and registers cleanup.
func openDurable(t *testing.T, fsys wal.FS, cfg Config) (*System, *RecoveryInfo) {
	t.Helper()
	s, info, err := OpenFS(fsys, durDir, cfg)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, info
}

// ingestSeq runs the scripted sequence on s, returning the encoded snapshot
// after each prefix: states[k] is the published state once k batches are
// acknowledged (states[0] is the empty system).
func ingestSeq(t *testing.T, s *System) [][]byte {
	t.Helper()
	states := [][]byte{snapBytes(s)}
	for i, b := range seqBatches() {
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
		states = append(states, snapBytes(s))
	}
	return states
}

func activeSeg(lsn uint64) string {
	return filepath.Join(durDir, fmt.Sprintf("wal-%016x.log", lsn))
}

func requireAnswer(t *testing.T, s *System, q, want string) {
	t.Helper()
	ans := s.Query(q)
	if !ans.Found || len(ans.Values) == 0 || ans.Values[0] != want {
		t.Fatalf("Query(%q) = found=%v values=%v, want %q", q, ans.Found, ans.Values, want)
	}
}

func TestDurableCloseReopen(t *testing.T) {
	fs := wal.NewMemFS()
	s, info := openDurable(t, fs, durTestConfig())
	if info.CheckpointLSN != 0 || info.RecordsReplayed != 0 || info.Truncated {
		t.Fatalf("fresh open reported recovery: %+v", info)
	}
	states := ingestSeq(t, s)
	requireAnswer(t, s, "What is the status of CA981?", "Delayed")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, info2 := openDurable(t, fs, durTestConfig())
	if info2.CheckpointLSN != 3 || info2.RecordsReplayed != 0 || info2.Truncated {
		t.Fatalf("reopen after clean close: %+v, want checkpoint at LSN 3 with empty tail", info2)
	}
	if !bytes.Equal(snapBytes(s2), states[3]) {
		t.Fatal("recovered snapshot differs from the pre-close state")
	}
	requireAnswer(t, s2, "What is the status of CA981?", "Delayed")
	requireAnswer(t, s2, "What is the delay reason of CA981?", "Typhoon")

	// The recovered system keeps committing durably.
	if _, err := s2.Ingest([]adapter.RawFile{{Domain: "flights", Source: "airport-api", Name: "s2", Format: "text",
		Content: []byte("The status of MU551 is Boarding.")}}); err != nil {
		t.Fatalf("post-recovery ingest: %v", err)
	}
	want := snapBytes(s2)
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3, _ := openDurable(t, fs, durTestConfig())
	if !bytes.Equal(snapBytes(s3), want) {
		t.Fatal("second reopen diverged")
	}
	requireAnswer(t, s3, "What is the status of MU551?", "Boarding")
}

func TestDurableOpenOSFS(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, _, err := Open(dir, durTestConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, b := range seqBatches() {
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	want := snapBytes(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, info, err := Open(dir, durTestConfig())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info.CheckpointLSN != 3 || info.RecordsReplayed != 0 {
		t.Fatalf("reopen info = %+v", info)
	}
	if !bytes.Equal(snapBytes(s2), want) {
		t.Fatal("recovered snapshot differs on the real filesystem")
	}
	requireAnswer(t, s2, "What is the status of CA981?", "Delayed")
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := openDurable(t, fs, durTestConfig())
	states := ingestSeq(t, s)

	// Crash without Close: no checkpoint was ever written, so recovery must
	// rebuild everything from the log alone.
	s2, info := openDurable(t, fs.Crash(nil), durTestConfig())
	if info.CheckpointLSN != 0 || info.RecordsReplayed != 3 || info.Truncated {
		t.Fatalf("crash recovery info = %+v, want 3 records replayed from LSN 0", info)
	}
	if !bytes.Equal(snapBytes(s2), states[3]) {
		t.Fatal("replayed state differs from the pre-crash published snapshot")
	}
	requireAnswer(t, s2, "What is the status of CA981?", "Delayed")
}

func TestWALSyncFailureFailsIngestAndLatches(t *testing.T) {
	fs := wal.NewMemFS()
	var fail atomic.Bool
	injected := errors.New("injected fsync failure")
	fs.OnOp = func(op wal.Op, name string) error {
		if fail.Load() && op == wal.OpSync && strings.HasSuffix(name, ".log") {
			return injected
		}
		return nil
	}
	s, _ := openDurable(t, fs, durTestConfig())
	batches := seqBatches()
	if _, err := s.Ingest(batches[0]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	pre := snapBytes(s)

	fail.Store(true)
	if _, err := s.Ingest(batches[1]); err == nil || !strings.Contains(err.Error(), "wal") {
		t.Fatalf("ingest with failing fsync: err = %v, want wal append failure", err)
	}
	if !bytes.Equal(snapBytes(s), pre) {
		t.Fatal("failed ingest leaked into the serving snapshot")
	}

	// The log is latched after an I/O error: the on-disk state is unknowable,
	// so retries keep failing until a restart repairs the tail.
	fail.Store(false)
	if _, err := s.Ingest(batches[1]); err == nil {
		t.Fatal("ingest after fsync failure succeeded; the log must latch failed")
	}
	if !bytes.Equal(snapBytes(s), pre) {
		t.Fatal("latched ingest mutated the serving snapshot")
	}

	// Restart: the unacknowledged record's unsynced bytes vanish, the
	// acknowledged prefix survives, and the batch can be re-ingested.
	s2, info := openDurable(t, fs.Crash(nil), durTestConfig())
	if info.RecordsReplayed != 1 || info.Truncated {
		t.Fatalf("recovery info = %+v, want exactly the acknowledged record", info)
	}
	if !bytes.Equal(snapBytes(s2), pre) {
		t.Fatal("recovered state differs from the last acknowledged snapshot")
	}
	if _, err := s2.Ingest(batches[1]); err != nil {
		t.Fatalf("re-ingest after restart: %v", err)
	}
}

// TestWALAppendLatchInDurabilityStatus: a segment fsync that fails during one
// ingest latches the log through the real append path, and DurabilityStatus
// (what /healthz and /v1/metrics report) shows the latch from then on, while
// every later ingest keeps failing unacknowledged.
func TestWALAppendLatchInDurabilityStatus(t *testing.T) {
	fs := wal.NewMemFS()
	var fail atomic.Bool
	injected := errors.New("injected fsync failure")
	fs.OnOp = func(op wal.Op, name string) error {
		if fail.Load() && op == wal.OpSync && strings.HasSuffix(name, ".log") {
			return injected
		}
		return nil
	}
	s, _ := openDurable(t, fs, durTestConfig())
	batches := seqBatches()
	if _, err := s.Ingest(batches[0]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	healthy := s.DurabilityStatus()
	if !healthy.Durable || healthy.WALAppendErr != "" {
		t.Fatalf("status before the fault = %+v, want durable with no latch", healthy)
	}

	fail.Store(true)
	_, err := s.Ingest(batches[1])
	fail.Store(false)
	if err == nil {
		t.Fatal("ingest with failing fsync succeeded")
	}
	latched := func(when string) {
		t.Helper()
		st := s.DurabilityStatus()
		if !strings.Contains(st.WALAppendErr, injected.Error()) {
			t.Fatalf("%s: WALAppendErr = %q, want the latched %q", when, st.WALAppendErr, injected)
		}
		if st.NextLSN != healthy.NextLSN {
			t.Fatalf("%s: NextLSN = %d, want %d: a failed ingest was acknowledged", when, st.NextLSN, healthy.NextLSN)
		}
	}
	latched("after the failed ingest")
	for i, b := range batches[1:] {
		if _, err := s.Ingest(b); err == nil {
			t.Fatalf("later ingest %d succeeded on a latched log", i)
		}
		latched(fmt.Sprintf("after later ingest %d", i))
	}
}

func TestTornTailRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	var fail atomic.Bool
	fs.OnOp = func(op wal.Op, name string) error {
		if fail.Load() && op == wal.OpSync && strings.HasSuffix(name, ".log") {
			return errors.New("injected fsync failure")
		}
		return nil
	}
	s, _ := openDurable(t, fs, durTestConfig())
	batches := seqBatches()
	if _, err := s.Ingest(batches[0]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	want := snapBytes(s)

	// Write-but-no-fsync the next record: its full frame sits in the unsynced
	// tail, modelling a crash at any point during the append.
	fail.Store(true)
	if _, err := s.Ingest(batches[1]); err == nil {
		t.Fatal("ingest with failing fsync succeeded")
	}
	seg := activeSeg(0)
	tail := fs.UnsyncedTail(seg)
	if tail == 0 {
		t.Fatal("no unsynced tail to tear")
	}

	offsets := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, tail / 4, tail / 2, 3 * tail / 4, tail - 2, tail - 1}
	for _, tl := range offsets {
		if tl < 0 || tl >= tail {
			continue
		}
		s2, info := openDurable(t, fs.Crash(map[string]int{seg: tl}), durTestConfig())
		if info.RecordsReplayed != 1 {
			t.Fatalf("tear at %d: replayed %d records, want 1", tl, info.RecordsReplayed)
		}
		if info.Truncated != (tl > 0) {
			t.Fatalf("tear at %d: Truncated = %v", tl, info.Truncated)
		}
		if !bytes.Equal(snapBytes(s2), want) {
			t.Fatalf("tear at %d: recovered state differs from the acknowledged snapshot", tl)
		}
		s2.Close()
	}

	// The whole frame surviving the crash is the legal other outcome: the
	// batch was never acknowledged, but a fully landed record replays.
	s3, info := openDurable(t, fs.Crash(map[string]int{seg: tail}), durTestConfig())
	if info.RecordsReplayed != 2 || info.Truncated {
		t.Fatalf("full-tail recovery info = %+v, want 2 clean records", info)
	}
	if bytes.Equal(snapBytes(s3), want) {
		t.Fatal("fully landed record was not replayed")
	}
}

func TestBitFlipTruncatesAtCorruption(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := openDurable(t, fs, durTestConfig())
	seg := activeSeg(0)
	var bounds []int // segment size after each acknowledged batch
	states := [][]byte{snapBytes(s)}
	bounds = append(bounds, fs.FileSize(seg))
	for i, b := range seqBatches() {
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		states = append(states, snapBytes(s))
		bounds = append(bounds, fs.FileSize(seg))
	}

	for rec := 0; rec < 3; rec++ {
		start, end := bounds[rec], bounds[rec+1]
		// One flip in each structural region of the frame: length, CRC,
		// first payload byte, mid-payload, last payload byte.
		for _, off := range []int{start, start + 4, start + 8, (start + end) / 2, end - 1} {
			crash := fs.Crash(nil)
			if err := crash.FlipBit(seg, off); err != nil {
				t.Fatalf("FlipBit(%d): %v", off, err)
			}
			s2, info := openDurable(t, crash, durTestConfig())
			if info.RecordsReplayed != rec || !info.Truncated {
				t.Fatalf("flip in record %d at %d: info = %+v, want point-in-time at record %d",
					rec, off, info, rec)
			}
			if !bytes.Equal(snapBytes(s2), states[rec]) {
				t.Fatalf("flip in record %d at %d: recovered state is not the pre-record snapshot", rec, off)
			}
			s2.Close()
		}
	}
}

func TestCrashMidCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	var fail atomic.Bool
	fs.OnOp = func(op wal.Op, name string) error {
		if fail.Load() && op == wal.OpRename && strings.Contains(name, "checkpoint-") {
			return errors.New("injected rename failure")
		}
		return nil
	}
	s, _ := openDurable(t, fs, durTestConfig())
	states := ingestSeq(t, s)

	fail.Store(true)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing rename succeeded")
	}
	fail.Store(false)

	// The failed checkpoint rotated the log and left a .tmp body behind, but
	// recovery must ignore both and replay the whole tail.
	s2, info := openDurable(t, fs.Crash(nil), durTestConfig())
	if info.CheckpointLSN != 0 || info.RecordsReplayed != 3 {
		t.Fatalf("recovery after failed checkpoint: %+v, want full replay from LSN 0", info)
	}
	if !bytes.Equal(snapBytes(s2), states[3]) {
		t.Fatal("state after failed checkpoint diverged")
	}

	// A retried checkpoint (thresholds persist, Close retries) succeeds and
	// later recovery uses it.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	s3, info3 := openDurable(t, fs.Crash(nil), durTestConfig())
	if info3.CheckpointLSN != 3 || info3.RecordsReplayed != 0 {
		t.Fatalf("recovery after retried checkpoint: %+v", info3)
	}
	if !bytes.Equal(snapBytes(s3), states[3]) {
		t.Fatal("state after retried checkpoint diverged")
	}
}

func TestCheckpointAfterMoreCommits(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := openDurable(t, fs, durTestConfig())
	states := ingestSeq(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := s.Ingest([]adapter.RawFile{{Domain: "flights", Source: "airport-api", Name: "late", Format: "text",
		Content: []byte("The status of MU551 is Boarding.")}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	want := snapBytes(s)
	if bytes.Equal(want, states[3]) {
		t.Fatal("post-checkpoint ingest did not change the snapshot")
	}

	s2, info := openDurable(t, fs.Crash(nil), durTestConfig())
	if info.CheckpointLSN != 3 || info.RecordsReplayed != 1 {
		t.Fatalf("recovery info = %+v, want checkpoint at 3 plus one tail record", info)
	}
	if !bytes.Equal(snapBytes(s2), want) {
		t.Fatal("checkpoint + tail replay diverged from the pre-crash state")
	}
}

func TestBackgroundCheckpointThresholdPrunes(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := durTestConfig()
	cfg.CheckpointRecords = 2
	s, _ := openDurable(t, fs, cfg)
	batches := seqBatches()
	for i, b := range batches[:2] {
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
	}

	// The second commit crossed the record threshold; the background
	// checkpointer runs asynchronously, so poll for its artifact before the
	// third commit, which would otherwise race it for the log position.
	deadline := time.Now().Add(5 * time.Second)
	for {
		names, err := fs.ReadDir(durDir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		found := false
		for _, n := range names {
			if strings.HasPrefix(n, "checkpoint-") && strings.HasSuffix(n, ".ckpt") {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never wrote a checkpoint; dir = %v", names)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Ingest(batches[2]); err != nil {
		t.Fatalf("ingest batch 2: %v", err)
	}
	final := snapBytes(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// After Close the directory holds the final checkpoint covering every
	// record, the newest older checkpoint (the media-corruption fallback —
	// see wal.RemoveBelow) with the segments to replay forward from it, and
	// the empty active segment. Everything unreachable from both recovery
	// points is pruned.
	names, err := fs.ReadDir(durDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var ckpts, segs []string
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".ckpt"):
			ckpts = append(ckpts, n)
		case strings.HasSuffix(n, ".log"):
			segs = append(segs, n)
		}
	}
	if len(ckpts) != 2 || ckpts[1] != "checkpoint-0000000000000003.ckpt" ||
		ckpts[0] != "checkpoint-0000000000000002.ckpt" {
		t.Fatalf("checkpoints after close = %v, want checkpoint-…2 (fallback) and checkpoint-…3", ckpts)
	}
	if len(segs) != 2 || segs[0] != "wal-0000000000000002.log" || segs[1] != "wal-0000000000000003.log" {
		t.Fatalf("segments after close = %v, want the fallback tail and the empty active segment", segs)
	}

	s2, info := openDurable(t, fs, cfg)
	if info.CheckpointLSN != 3 || info.RecordsReplayed != 0 {
		t.Fatalf("reopen info = %+v", info)
	}
	if !bytes.Equal(snapBytes(s2), final) {
		t.Fatal("pruned-log recovery diverged")
	}
}

func TestConcurrentDurableIngestRecovers(t *testing.T) {
	fs := wal.NewMemFS()
	s, _ := openDurable(t, fs, durTestConfig())
	const producers = 4
	const perProducer = 3
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				f := adapter.RawFile{Domain: "flights", Source: "airport-api",
					Name: fmt.Sprintf("p%d-%d", p, i), Format: "text",
					Content: []byte(fmt.Sprintf("The status of FL%d%d1 is Scheduled.", p, i))}
				if _, err := s.Ingest([]adapter.RawFile{f}); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}
	want := snapBytes(s)

	s2, info := openDurable(t, fs.Crash(nil), durTestConfig())
	if info.RecordsReplayed == 0 {
		t.Fatal("no WAL records to replay after concurrent ingest")
	}
	if !bytes.Equal(snapBytes(s2), want) {
		t.Fatal("recovered state differs from the pre-crash snapshot after concurrent ingest")
	}
	requireAnswer(t, s2, "What is the status of FL001?", "Scheduled")
}

// writeSizeFS is a MemFS whose appended files record the size of every
// Write: where a multi-write record's writes begin and end.
type writeSizeFS struct {
	*wal.MemFS
	mu    sync.Mutex
	sizes []int
}

func (w *writeSizeFS) OpenAppend(name string) (wal.File, error) {
	f, err := w.MemFS.OpenAppend(name)
	return sizedWriter{f, w}, err
}

func (w *writeSizeFS) Create(name string) (wal.File, error) {
	f, err := w.MemFS.Create(name)
	return sizedWriter{f, w}, err
}

type sizedWriter struct {
	wal.File
	w *writeSizeFS
}

func (f sizedWriter) Write(p []byte) (int, error) {
	f.w.mu.Lock()
	f.w.sizes = append(f.w.sizes, len(p))
	f.w.mu.Unlock()
	return f.File.Write(p)
}

// TestTornBulkRecordRecovery: a bulk load's record reaches the segment in
// several writes of the log's buffer. A crash that tears it anywhere — inside
// its frame header, at each write boundary, in the middle of a write —
// recovers to the LSN before it, with the digest of a reference engine that
// ingested only the batches acknowledged before it.
func TestTornBulkRecordRecovery(t *testing.T) {
	fs := &writeSizeFS{MemFS: wal.NewMemFS()}
	var fail atomic.Bool
	fs.OnOp = func(op wal.Op, name string) error {
		if fail.Load() && op == wal.OpSync && strings.HasSuffix(name, ".log") {
			return errors.New("injected fsync failure")
		}
		return nil
	}
	cfg := durTestConfig()
	s, _ := openDurable(t, fs, cfg)
	first := seqBatches()[0]
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	ref := NewSystem(cfg)
	if _, err := ref.Ingest(first); err != nil {
		t.Fatal(err)
	}
	want := ref.SnapshotDigest()

	// Write-but-no-fsync the bulk record: its whole frame sits in the
	// unsynced tail, in the writes recorded from here on.
	fs.mu.Lock()
	fs.sizes = nil
	fs.mu.Unlock()
	fail.Store(true)
	if _, err := s.Ingest(bulkFiles(t)[:5]); err == nil {
		t.Fatal("ingest with failing fsync succeeded")
	}
	seg := activeSeg(0)
	tail := fs.UnsyncedTail(seg)
	offsets := []int{1, 4, 7} // inside the frame header
	end := 0
	for _, n := range fs.sizes {
		offsets = append(offsets, end+n/2) // mid-write
		if end += n; end < tail {
			offsets = append(offsets, end) // a write boundary
		}
	}
	if end != tail || len(fs.sizes) < 4 {
		t.Fatalf("the record went out in %d writes of %d bytes in all, the tail is %d; want a record of several writes", len(fs.sizes), end, tail)
	}
	t.Logf("a %d-byte frame in %d writes, torn at %d offsets", tail, len(fs.sizes), len(offsets))
	for _, off := range offsets {
		s2, info := openDurable(t, fs.Crash(map[string]int{seg: off}), cfg)
		if info.RecordsReplayed != 1 || !info.Truncated || s2.ReplicationLSN() != 1 {
			t.Fatalf("tear at %d of %d: %+v, LSN %d; want 1 record replayed, the torn one truncated", off, tail, info, s2.ReplicationLSN())
		}
		if got := s2.SnapshotDigest(); got != want {
			t.Fatalf("tear at %d of %d: digest %016x, the reference %016x", off, tail, got, want)
		}
		s2.Close()
	}
}

// TestEmptyGraphMetersAlike: a system whose graph holds no triple answers
// from chunks, whichever way its state was published. A durable primary
// ingests one text file that yields a chunk and no triple; the primary, a
// system reopened from its directory, a replica seeded beside it and a
// replica that applied its record each answer one question with the same
// values and the same model usage.
func TestEmptyGraphMetersAlike(t *testing.T) {
	cfg := durTestConfig()
	fsys := wal.NewMemFS()
	primary, _ := openDurable(t, fsys, cfg)
	follower := NewSystem(cfg)
	lease := primary.AcquireWALLease(0)
	defer lease.Release()
	tail, err := primary.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Ingest([]adapter.RawFile{{Domain: "flights", Source: "notes", Name: "memo", Format: "text",
		Content: []byte("Nothing was reported today.")}}); err != nil {
		t.Fatal(err)
	}
	if n, c := primary.Graph().NumTriples(), primary.Index().Len(); n != 0 || c == 0 {
		t.Fatalf("the file must yield chunks and no triple: %d triples, %d chunks", n, c)
	}
	catchUp(t, primary, follower, tail)
	seeded, _ := seededReplica(t, primary)
	reopened, _ := openDurable(t, fsys.Crash(nil), cfg)

	const q = "What is the status of CA981?"
	ask := func(s *System) (Answer, llm.Usage) {
		before := s.Model().Usage()
		ans := s.Query(q)
		after := s.Model().Usage()
		return ans, llm.Usage{Calls: after.Calls - before.Calls, PromptTokens: after.PromptTokens - before.PromptTokens,
			CompletionTokens: after.CompletionTokens - before.CompletionTokens}
	}
	want, wantUsage := ask(primary)
	for name, s := range map[string]*System{"reopened": reopened, "seeded replica": seeded, "applying replica": follower} {
		got, usage := ask(s)
		if !slices.Equal(got.Values, want.Values) || usage != wantUsage {
			t.Fatalf("%s: values %v, usage %+v; the primary %v, %+v", name, got.Values, usage, want.Values, wantUsage)
		}
	}
}
