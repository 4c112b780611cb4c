package multirag

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/core"
	"multirag/internal/fault"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// testConfig is the deterministic engine config every cluster test shares —
// the same seed the core equivalence suites pin, so byte-identity failures
// here mean replication bugs, not model noise.
func testConfig() core.Config {
	return core.Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0, BaseHallucination: 0.02, ConflictSensitivity: 0.6}}
}

const dataDir = "data"

// openPrimary opens a durable primary on fs and closes it when the test ends.
func openPrimary(t *testing.T, fs *wal.MemFS) *core.System {
	t.Helper()
	primary, _, err := core.OpenFS(fs, dataDir, testConfig())
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	t.Cleanup(func() { primary.Close() })
	return primary
}

// newCluster replicates primary n times, as NewReplicaSet does for the
// System wrapping it.
func newCluster(primary *core.System, n int) (*ReplicaSet, error) {
	return NewReplicaSet(&System{inner: primary}, ReplicaSetConfig{Replicas: n})
}

// corpusBatches is the case-study corpus split into three ingest batches, so
// tests exercise multiple logged records.
func corpusBatches() [][]adapter.RawFile {
	files := []adapter.RawFile{
		{Domain: "flights", Source: "airport-api", Name: "schedule", Format: "csv",
			Content: []byte("flight,origin,destination,status\nCA981,PEK,JFK,Delayed\n")},
		{Domain: "flights", Source: "airline-app", Name: "live", Format: "json",
			Content: []byte(`[{"flight":"CA981","status":"Delayed","delay_reason":"Typhoon"}]`)},
		{Domain: "flights", Source: "weather-feed", Name: "alerts", Format: "text",
			Content: []byte("The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.")},
		{Domain: "flights", Source: "forum-user", Name: "posts", Format: "text",
			Content: []byte("The status of CA981 is On time.")},
	}
	return [][]adapter.RawFile{files[:2], files[2:3], files[3:]}
}

// fillerBatch builds one batch about entities unrelated to the base corpus,
// so concurrent ingest cannot change base-query answers.
func fillerBatch(i int) []adapter.RawFile {
	return []adapter.RawFile{{Domain: "flights", Source: "airport-api", Name: fmt.Sprintf("filler-%d", i), Format: "text",
		Content: []byte(fmt.Sprintf("The status of XX%03d is Scheduled.", i))}}
}

func ingest(t *testing.T, s *core.System, batches ...[]adapter.RawFile) {
	t.Helper()
	for _, b := range batches {
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitCaughtUp waits until every replica is live at the primary's committed
// position.
func waitCaughtUp(t *testing.T, c *ReplicaSet) {
	t.Helper()
	waitFor(t, "replicas to catch up", func() bool {
		committed := c.CommittedLSN()
		for _, r := range c.Replicas() {
			if !r.Live() || r.Position() != committed {
				return false
			}
		}
		return true
	})
}

// stateBytes is what byte-identity compares: the serving snapshot's
// checkpoint body, then the state every load derives instead of storing —
// each row's vector bit for bit and the line graph (statistics, every
// homologous node in key order with its members and sources, the isolated
// points) — so replicas are held to the primary's vectors and line graph too.
func stateBytes(s *core.System) []byte {
	var e wal.Encoder
	e.Raw(s.ServingHandle().Encode())
	s.Index().ForEachEmbedded(func(c retrieval.Chunk, v retrieval.Vector) {
		e.String(c.ID)
		for _, x := range v {
			e.F32(x)
		}
	})
	sg := s.SG()
	e.Bool(sg != nil)
	if sg == nil {
		return e.Bytes()
	}
	st := sg.ComputeStats()
	e.Int(st.HomologousNodes)
	e.Int(st.Isolated)
	var keys []string
	sg.ForEachNode(func(key string, _ *linegraph.HomologousNode) { keys = append(keys, key) })
	slices.Sort(keys)
	for _, key := range keys {
		n, _ := sg.Node(key)
		e.String(n.Key)
		e.Int(n.Num)
		members := sg.MemberTriples(n)
		e.Int(len(members))
		for _, t := range members {
			e.String(t.ID())
			e.String(t.Source)
		}
	}
	for _, id := range sg.IsolatedIDs() {
		e.String(id)
	}
	return e.Bytes()
}

// requireIdentical fails unless every replica holds the primary's state.
func requireIdentical(t *testing.T, c *ReplicaSet) {
	t.Helper()
	want := stateBytes(c.primary)
	for _, r := range c.Replicas() {
		if !bytes.Equal(stateBytes(r.sys), want) {
			t.Fatalf("%s snapshot differs from primary", r.Name())
		}
	}
}

// ingestPast commits filler batches until the primary's position is past lsn.
func ingestPast(t *testing.T, s *core.System, lsn uint64) {
	t.Helper()
	for i := 0; s.ReplicationLSN() <= lsn; i++ {
		ingest(t, s, fillerBatch(i))
	}
}

// TestClusterReplicasByteIdentical pins the tentpole invariant end to end:
// replicas reading the primary's log — across a checkpoint's rotation and
// pruning — hold snapshots byte-identical to the primary's after every
// batch, verify its digest at the first verification point, and answer
// queries identically.
func TestClusterReplicasByteIdentical(t *testing.T) {
	primary := openPrimary(t, wal.NewMemFS())
	c, err := newCluster(primary, 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	for i, b := range corpusBatches() {
		ingest(t, primary, b)
		if i == 0 {
			if err := primary.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		waitCaughtUp(t, c)
		requireIdentical(t, c)
	}
	ingestPast(t, primary, 16)
	waitCaughtUp(t, c)
	requireIdentical(t, c)

	wantAns := primary.Query("What is the status of CA981?")
	for _, r := range c.Replicas() {
		got := r.AskEach([]context.Context{nil}, []string{"What is the status of CA981?"})[0]
		if got.Found != wantAns.Found || len(got.Values) != len(wantAns.Values) || got.Values[0] != wantAns.Values[0] {
			t.Fatalf("%s answer %+v differs from primary %+v", r.Name(), got, wantAns)
		}
		st := r.status(c.CommittedLSN())
		if st.Verified != 1 {
			t.Fatalf("%s verified %d points, want 1: %+v", r.Name(), st.Verified, st)
		}
		if st.Divergences != 0 || st.Resyncs != 0 {
			t.Fatalf("%s fenced on a healthy log: %+v", r.Name(), st)
		}
	}
}

// TestClusterNeedsDurablePrimary: replicas read the log, so an in-memory
// primary, which has none, cannot be replicated.
func TestClusterNeedsDurablePrimary(t *testing.T) {
	if _, err := newCluster(core.NewSystem(testConfig()), 1); !errors.Is(err, core.ErrNotDurable) {
		t.Fatalf("New on an in-memory primary: %v, want ErrNotDurable", err)
	}
}

// TestClusterAntiEntropyCatchesDivergence pins the verification tier: a
// replica whose state is silently corrupted (reseeded with a snapshot that
// never came from this primary) reads and replays every record fine, but
// fails the digest check at the next verification point, self-fences, and
// rejoins byte-identical.
func TestClusterAntiEntropyCatchesDivergence(t *testing.T) {
	primary := openPrimary(t, wal.NewMemFS())
	c, err := newCluster(primary, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	r := c.Replicas()[0]

	batches := corpusBatches()
	ingest(t, primary, batches[0])
	waitCaughtUp(t, c)

	// Corrupt the replica in place: seed it with a different engine's state
	// at the same position. Reading the log cannot see this.
	other := core.NewSystem(testConfig())
	ingest(t, other, fillerBatch(999))
	if err := r.sys.SeedReplica(other.ServingHandle().Encode(), r.Position()); err != nil {
		t.Fatalf("corrupting seed: %v", err)
	}

	ingest(t, primary, batches[1])
	ingestPast(t, primary, 16)
	waitFor(t, "anti-entropy divergence", func() bool { return r.status(c.CommittedLSN()).Divergences >= 1 })
	waitCaughtUp(t, c)
	requireIdentical(t, c)
	if st := r.status(c.CommittedLSN()); st.Resyncs != 1 {
		t.Fatalf("replica resynced %d times, want 1: %+v", st.Resyncs, st)
	}
}

// TestClusterDurablePrimaryLeasesWAL pins the retention contract end to end:
// a replica hung mid-stream holds its lease, so checkpoints — two, so not even
// the fallback checkpoint's tail keeps the log — prune nothing it still needs;
// released, it catches up from the log without a resync, and the next
// checkpoint prunes what it has read.
func TestClusterDurablePrimaryLeasesWAL(t *testing.T) {
	defer fault.Reset()
	fs := wal.NewMemFS()
	primary := openPrimary(t, fs)
	c, err := newCluster(primary, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	r := c.Replicas()[0]
	batches := corpusBatches()
	ingest(t, primary, batches[0])
	waitCaughtUp(t, c)

	fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindHang})
	ingest(t, primary, batches[1])
	waitFor(t, "replica to hang on the fault", func() bool { return fault.Hits(fault.PointClusterReplay) >= 1 })
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ingest(t, primary, batches[2])
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The lease (still at 1) must have kept the log replayable from there.
	sr, err := wal.Scan(fs, dataDir, 1)
	if err != nil {
		t.Fatalf("Scan under lease: %v", err)
	}
	if len(sr.Records) != 2 {
		t.Fatalf("leased scan found %d records, want 2", len(sr.Records))
	}

	fault.Disable(fault.PointClusterReplay)
	waitCaughtUp(t, c)
	requireIdentical(t, c)
	if st := r.status(c.CommittedLSN()); st.Resyncs != 0 {
		t.Fatalf("hung replica resynced instead of reading the log: %+v", st)
	}
	ingest(t, primary, fillerBatch(1))
	waitCaughtUp(t, c)
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	names, err := fs.ReadDir(dataDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, n := range names {
		if n == "wal-0000000000000000.log" {
			t.Fatalf("genesis segment survived after the lease advanced: %v", names)
		}
	}
}

// TestClusterCheckpointDuringAttach pins the atomic seed capture: a replica
// is seeded mid-segment, and before it has read a record — or opened its
// cursor — checkpoints land and prune. The MemFS hook sees every
// removal; none may take the segment holding the seed position, and the
// replica catches up from the log without a resync.
func TestClusterCheckpointDuringAttach(t *testing.T) {
	defer fault.Reset()
	fs := wal.NewMemFS()
	var mu sync.Mutex
	var removed []string
	fs.OnOp = func(op wal.Op, name string) error {
		if op == wal.OpRemove {
			mu.Lock()
			removed = append(removed, filepath.Base(name))
			mu.Unlock()
		}
		return nil
	}
	primary := openPrimary(t, fs)
	batches := corpusBatches()
	ingest(t, primary, batches[0])
	if err := primary.Checkpoint(); err != nil { // segment wal-1 starts at LSN 1
		t.Fatal(err)
	}
	ingest(t, primary, batches[1], fillerBatch(0)) // the seed position, 3, is two records into it

	fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindHang})
	c, err := newCluster(primary, 1) // one replica: only the seed's own lease holds the log
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	for _, b := range [][]adapter.RawFile{batches[2], fillerBatch(1)} {
		ingest(t, primary, b)
		if err := primary.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	if !slices.Contains(removed, "wal-0000000000000000.log") {
		t.Fatalf("the checkpoints pruned %v, not the segment below the seed; the test shows nothing", removed)
	}
	if slices.Contains(removed, "wal-0000000000000001.log") {
		t.Fatalf("pruning removed the segment holding the seed position: %v", removed)
	}
	mu.Unlock()

	fault.Disable(fault.PointClusterReplay)
	waitCaughtUp(t, c)
	requireIdentical(t, c)
	for _, st := range c.Status() {
		if st.Resyncs != 0 {
			t.Fatalf("replica resynced instead of reading the log: %+v", st)
		}
	}
}

// TestClusterSeedsReplicasConcurrently: New seeds every replica as a clone of
// its own of the primary's published snapshot, and the replicas then apply the
// log concurrently; each starts at the primary's position with the primary's
// digest, and goes on reading the log from there.
func TestClusterSeedsReplicasConcurrently(t *testing.T) {
	primary := openPrimary(t, wal.NewMemFS())
	batches := corpusBatches()
	ingest(t, primary, batches[0], batches[1])
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingest(t, primary, batches[2])
	c, err := newCluster(primary, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	want := primary.SnapshotDigest()
	for _, r := range c.Replicas() {
		if got := r.sys.SnapshotDigest(); got != want || r.Position() != primary.ReplicationLSN() {
			t.Fatalf("%s seeded at %d with digest %016x, primary at %d with %016x",
				r.Name(), r.Position(), got, primary.ReplicationLSN(), want)
		}
	}
	ingest(t, primary, fillerBatch(0))
	waitCaughtUp(t, c)
	requireIdentical(t, c)
}

// TestClusterFailedSeedReleasesLeases: when one of the concurrent seeds fails,
// New returns its error having started no replica and released every lease
// it took — the next checkpoint prunes the segment holding the seed position
// — and leaves no goroutine behind.
func TestClusterFailedSeedReleasesLeases(t *testing.T) {
	defer fault.Reset()
	fs := wal.NewMemFS()
	primary := openPrimary(t, fs)
	batches := corpusBatches()
	ingest(t, primary, batches[0], batches[1]) // the seed position, 2, is in segment wal-0
	goroutines := runtime.NumGoroutine()

	fault.Enable(fault.PointClusterSeed, fault.Fault{Kind: fault.KindError, MaxHits: 1})
	if c, err := newCluster(primary, 3); !errors.Is(err, fault.ErrInjected) {
		if err == nil {
			c.Close()
		}
		t.Fatalf("New with one failing seed: %v, want the injected error", err)
	}
	if hits := fault.Hits(fault.PointClusterSeed); hits != 1 {
		t.Fatalf("%d seeds failed, want 1", hits)
	}
	waitFor(t, "seeding goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })

	ingest(t, primary, batches[2])
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(names, "wal-0000000000000000.log") {
		t.Fatalf("a lease of the failed New still holds the seed position's segment: %v", names)
	}
}

// TestClusterCorruptFrameFences: a flipped bit in a committed record the
// replica has yet to read is a read error, never a quiet stop — the replica
// fences, resyncs past the bad frame and rejoins byte-identical.
func TestClusterCorruptFrameFences(t *testing.T) {
	defer fault.Reset()
	fs := wal.NewMemFS()
	primary := openPrimary(t, fs)
	c, err := newCluster(primary, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	r := c.Replicas()[0]
	batches := corpusBatches()
	ingest(t, primary, batches[0])
	waitCaughtUp(t, c)

	fault.Enable(fault.PointClusterReplay, fault.Fault{Kind: fault.KindHang})
	seg := filepath.Join(dataDir, "wal-0000000000000000.log")
	frame := fs.FileSize(seg)
	ingest(t, primary, batches[1])
	waitFor(t, "replica to hang on the fault", func() bool { return fault.Hits(fault.PointClusterReplay) >= 1 })
	if err := fs.FlipBit(seg, frame+8+4); err != nil { // inside the payload
		t.Fatal(err)
	}
	fault.Disable(fault.PointClusterReplay)
	waitFor(t, "fence on the corrupt frame", func() bool { return r.status(c.CommittedLSN()).Resyncs >= 1 })
	ingest(t, primary, batches[2])
	waitCaughtUp(t, c)
	requireIdentical(t, c)
	if st := r.status(c.CommittedLSN()); st.Resyncs != 1 || st.Divergences != 0 {
		t.Fatalf("want one resync for the read error and no divergence: %+v", st)
	}
}
