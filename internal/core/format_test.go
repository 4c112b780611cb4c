package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"multirag/internal/adapter"
	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// format1Config and format1Batches are the configuration and ingest history
// behind testdata/format1: three commits, a checkpoint, then four commits
// left in the WAL tail, as a crash would leave them.
func format1Config() Config {
	return Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0, BaseHallucination: 0.02, ConflictSensitivity: 0.6}}
}

func format1Batches() [][]adapter.RawFile {
	flights := []adapter.RawFile{
		{Domain: "flights", Source: "airport-api", Name: "schedule", Format: "csv",
			Content: []byte("flight,origin,destination,status\nCA981,PEK,JFK,Delayed\nMU588,PVG,LAX,On time\n")},
		{Domain: "flights", Source: "airline-app", Name: "live", Format: "json",
			Content: []byte(`[{"flight":"CA981","status":"Delayed","delay_reason":"Typhoon"}]`)},
		{Domain: "flights", Source: "weather-feed", Name: "alerts", Format: "text",
			Content: []byte("The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.")},
		{Domain: "flights", Source: "forum-user", Name: "posts", Format: "text",
			Content: []byte("The status of CA981 is On time. The gate of MU588 is B12.")},
	}
	batches := [][]adapter.RawFile{flights[:2], flights[2:3], flights[3:]}
	for k := 0; k < 4; k++ {
		subj := fmt.Sprintf("Unit %d", k)
		batches = append(batches, []adapter.RawFile{
			{Domain: "fleet", Source: fmt.Sprintf("feed-%d", k), Name: "facts", Format: "kg",
				Content: []byte(fmt.Sprintf("%s|status|Ready\n%s|zone|Z%d\n", subj, subj, k%3))},
			{Domain: "fleet", Source: fmt.Sprintf("notes-%d", k), Name: "notes", Format: "text",
				Content: []byte(fmt.Sprintf("The zone of %s is Z%d. The status of %s is Ready.", subj, k%3, subj))},
		})
	}
	return batches
}

// format1Dir is a data directory written by the release before vectors were
// stored sparse: checkpoint-…3.ckpt (format 1) covering format1Batches()[:3]
// and wal-…3.log holding the other four commits as format-1 records.
const format1Dir = "testdata/format1"

// format2Dir is a data directory written by the first format-2 release:
// checkpoint-…2.ckpt covering formatBatches()[:2] and wal-…2.log holding
// the multi-file third batch, as a crash would leave them. The files those
// batches ingest are in its src directory.
const format2Dir = "testdata/format2"

// format3Dir is the same directory written by the first format-3 release,
// from the same files by the same procedure (writeFormat), and format4Dir
// the same written by the first format-4 release. format3MigratedDir is
// format3Dir after one `multirag recover -data-dir` by the last release that
// read format 3: the format-3 checkpoint at LSN 2, kept as the fallback, the
// format-4 checkpoint at LSN 3 that recovery wrote, the format-3 record in
// wal-…2.log and an empty wal-…3.log.
const (
	format3Dir         = "testdata/format3"
	format4Dir         = "testdata/format4"
	format3MigratedDir = "testdata/format3-migrated"
)

// format4Digest is the snapshot digest the first format-4 release computed
// for format4Dir reopened.
const format4Digest = 0xf4d1a346a6cebbbb

// formatBatches reads the ingest history behind format2Dir, format3Dir and
// format4Dir: two commits before the checkpoint, then one commit of three
// files.
func formatBatches(t testing.TB) [][]adapter.RawFile {
	t.Helper()
	type file struct{ domain, source, name, format string }
	batches := [][]file{
		{{"flights", "airport-api", "schedule.csv", "csv"}, {"flights", "airline-app", "live.json", "json"}},
		{{"flights", "weather-feed", "alerts.txt", "text"}},
		{{"flights", "forum-user", "posts.txt", "text"}, {"fleet", "registry", "fleet.kg", "kg"}, {"crews", "crew-roster", "crews.xml", "xml"}},
	}
	out := make([][]adapter.RawFile, len(batches))
	for i, b := range batches {
		for _, f := range b {
			content, err := os.ReadFile(filepath.Join(format2Dir, "src", f.name))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], adapter.RawFile{Domain: f.domain, Source: f.source,
				Name: strings.TrimSuffix(f.name, filepath.Ext(f.name)), Format: f.format, Content: content})
		}
	}
	return out
}

// writeFormat ingests formatBatches into a fresh directory the way
// format2Dir, format3Dir and format4Dir were written and returns the
// still-open system:
// the first two batches, a checkpoint, the third batch. The fixture is the
// directory's files copied before Close.
func writeFormat(t testing.TB, dir string) *System {
	t.Helper()
	s, _, err := Open(dir, format1Config())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range formatBatches(t) {
		if i == 2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
	}
	return s
}

// embeddedRows returns every row of s's store with a private copy of its
// vector.
func embeddedRows(s *System) ([]retrieval.Chunk, []retrieval.Vector) {
	var cs []retrieval.Chunk
	var vs []retrieval.Vector
	s.snap.Load().index.ForEachEmbedded(func(c retrieval.Chunk, v retrieval.Vector) {
		cs = append(cs, c)
		vs = append(vs, slices.Clone(v))
	})
	return cs, vs
}

// dirFiles returns every file under dir by its path with its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := fs.WalkDir(os.DirFS(dir), ".", func(name string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		files[name] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// requireUnsupportedDirectory: the data directory src, a checkpoint at LSN
// lsn plus a tail of records in a format this release no longer reads, fails
// Open with ErrUnsupportedFormat and is left byte for byte as it was, and so
// does its record tail alone, with no checkpoint in front of it. The replica
// doors reject the same checkpoint body and records the same way and publish
// nothing.
func requireUnsupportedDirectory(t *testing.T, src string, lsn uint64, records int) {
	t.Helper()
	openRejected := func(dir string) {
		t.Helper()
		before := dirFiles(t, dir)
		if _, _, err := Open(dir, format1Config()); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("Open: %v, want ErrUnsupportedFormat", err)
		}
		if !maps.Equal(dirFiles(t, dir), before) {
			t.Fatal("a rejected Open changed the directory")
		}
	}
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	openRejected(dir)

	tail := filepath.Join(t.TempDir(), "tail")
	if err := os.Mkdir(tail, 0o755); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(src, fmt.Sprintf("wal-%016x.log", lsn)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tail, "wal-0000000000000000.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	openRejected(tail)

	body, _, err := wal.LoadCheckpoint(wal.OSFS{}, src)
	if err != nil || body == nil {
		t.Fatalf("checkpoint: %v", err)
	}
	r := NewSystem(format1Config())
	if err := r.SeedReplica(body, lsn); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("SeedReplica: %v, want ErrUnsupportedFormat", err)
	}
	sr, err := wal.Scan(wal.OSFS{}, src, lsn)
	if err != nil || len(sr.Records) != records {
		t.Fatalf("records: %d, %v; want %d", len(sr.Records), err, records)
	}
	for i, rec := range sr.Records {
		if err := r.ReplicaApply(rec); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("ReplicaApply(record %d): %v, want ErrUnsupportedFormat", i, err)
		}
	}
	if r.ReplicationLSN() != 0 || r.snap.Load().gen != 0 {
		t.Fatal("a rejected replica door published a snapshot")
	}
}

// TestOpenFormat1Directory: format 1 is no longer read. The directory a
// format-1 release wrote — a format-1 checkpoint plus a tail of format-1
// records — is rejected whole and left as it was (requireUnsupportedDirectory).
func TestOpenFormat1Directory(t *testing.T) {
	requireUnsupportedDirectory(t, format1Dir, 3, 4)
}

// TestOpenFormat2Directory: format 2 is no longer read either. The format-2
// fixture — a format-2 checkpoint plus one format-2 record — is rejected
// whole and left as it was (requireUnsupportedDirectory).
func TestOpenFormat2Directory(t *testing.T) {
	requireUnsupportedDirectory(t, format2Dir, 2, 1)
}

// TestOpenFormat3Directory: a release reads only the format it writes, so
// format 3 is rejected too. The format-3 fixture — a format-3 checkpoint plus
// one format-3 record — is rejected whole and left as it was
// (requireUnsupportedDirectory).
func TestOpenFormat3Directory(t *testing.T) {
	requireUnsupportedDirectory(t, format3Dir, 2, 1)
}

// TestFormat4Bytes pins format 4 byte for byte: re-ingesting the files behind
// format4Dir into a fresh directory writes exactly the checkpoint and WAL
// segment the first format-4 release wrote, and the fixture reopens to the
// snapshot digest that release computed.
func TestFormat4Bytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s := writeFormat(t, dir)
	defer s.Close()
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range written {
		names = append(names, e.Name())
	}
	if want := []string{"checkpoint-0000000000000002.ckpt", "wal-0000000000000002.log"}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(format4Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the fixture (%d bytes, fixture %d)", name, len(got), len(want))
		}
	}
	if d := s.SnapshotDigest(); d != format4Digest {
		t.Errorf("re-ingested snapshot digest %#016x, want %#016x", d, uint64(format4Digest))
	}

	r, info := openCopy(t, format4Dir)
	defer r.Close()
	if *info != (RecoveryInfo{CheckpointLSN: 2, RecordsReplayed: 1}) {
		t.Fatalf("recovery info %+v, want the checkpoint at LSN 2 and 1 replayed record", *info)
	}
	if d := r.SnapshotDigest(); d != format4Digest {
		t.Fatalf("reopened fixture digest %#016x, want %#016x", d, uint64(format4Digest))
	}
	requireDerivedEqual(t, r, s)
	requireAnswer(t, r, "What is the status of CA981?", "Delayed")
}

// openCopy opens a private copy of the data directory src.
func openCopy(t *testing.T, src string) (*System, *RecoveryInfo) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	s, info, err := Open(dir, format1Config())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, info
}

// TestOpenFormat3MigratedDirectory is the migration path a format-3 directory
// takes: opened once by a release that read format 3, it opens here from the
// format-4 checkpoint that release wrote, with nothing replayed, to the digest
// and derived state of the same files ingested fresh. The format-3 fallback
// checkpoint and segment are never read, and the next checkpoint prunes them:
// after one commit and Close every checkpoint left is format 4, and the
// directory reopens to the same digest.
func TestOpenFormat3MigratedDirectory(t *testing.T) {
	fresh := writeFormat(t, filepath.Join(t.TempDir(), "fresh"))
	defer fresh.Close()
	s, info := openCopy(t, format3MigratedDir)
	defer s.Close()
	if *info != (RecoveryInfo{CheckpointLSN: 3}) {
		t.Fatalf("recovery info %+v, want the checkpoint at LSN 3 and nothing replayed", *info)
	}
	if d := s.SnapshotDigest(); d != format4Digest {
		t.Fatalf("migrated fixture digest %#016x, want %#016x", d, uint64(format4Digest))
	}
	requireDerivedEqual(t, s, fresh)
	requireAnswer(t, s, "What is the status of CA981?", "Delayed")

	if _, err := s.Ingest(format1Batches()[3]); err != nil {
		t.Fatal(err)
	}
	want := s.SnapshotDigest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dir := s.dur.dir
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("checkpoints after Close: %v, %v", ckpts, err)
	}
	for _, path := range ckpts {
		// Loaded alone, so a newer checkpoint cannot shadow it.
		alone := t.TempDir()
		b, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(alone, filepath.Base(path)), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := wal.LoadCheckpoint(wal.OSFS{}, alone)
		if err != nil || body == nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if body[0] != snapshotVersion {
			t.Fatalf("%s is a version-%d checkpoint after Close, want %d", filepath.Base(path), body[0], snapshotVersion)
		}
	}
	r, info := openCopy(t, dir)
	defer r.Close()
	if info.RecordsReplayed != 0 || r.SnapshotDigest() != want {
		t.Fatalf("reopened after Close: %+v, digest %#016x, want %#016x", *info, r.SnapshotDigest(), want)
	}
}

// TestOpenNamesCorruptNewestCheckpoint: when the newest checkpoint fails its
// check and recovery from what it falls back to fails too, the error names
// the corrupt checkpoint, not only the fallback's fault, and the directory is
// left byte for byte as it was. In the migrated fixture the fallback is the
// format-3 checkpoint at LSN 2; in format4Dir, whose only checkpoint is the
// corrupt one, it is the log from LSN 0, which starts at 2.
func TestOpenNamesCorruptNewestCheckpoint(t *testing.T) {
	for _, c := range []struct {
		src, ckpt, cause string
	}{
		{format3MigratedDir, "checkpoint-0000000000000003.ckpt", ErrUnsupportedFormat.Error()},
		{format4Dir, "checkpoint-0000000000000002.ckpt", "log gap"},
	} {
		dir := filepath.Join(t.TempDir(), "data")
		if err := os.CopyFS(dir, os.DirFS(c.src)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, c.ckpt)
		b, err := os.ReadFile(path)
		if err == nil {
			b[len(b)/2] ^= 0xff
			err = os.WriteFile(path, b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		_, _, err = Open(dir, format1Config())
		if err == nil || !strings.Contains(err.Error(), c.ckpt+" is corrupt or unreadable") || !strings.Contains(err.Error(), c.cause) {
			t.Fatalf("%s: Open: %v, want %s named corrupt and %q as the fallback's fault", c.src, err, c.ckpt, c.cause)
		}
		if !maps.Equal(dirFiles(t, dir), before) {
			t.Fatalf("%s: a failed Open changed the directory", c.src)
		}
	}
}

// TestDecodedSnapshotSharesStrings: a snapshot decoded from a checkpoint body
// holds one copy of a repeated value, not one per row — the triples of one
// source share their Source bytes, the chunks of one document their DocID.
func TestDecodedSnapshotSharesStrings(t *testing.T) {
	s := NewSystem(format1Config())
	for i, b := range formatBatches(t) {
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
	}
	sn, err := s.decodeSnapshot(snapshotBody(s.snap.Load()))
	if err != nil {
		t.Fatal(err)
	}
	shared := func(what string, first map[string]string, v string) int {
		f, ok := first[v]
		if !ok {
			first[v] = v
			return 0
		}
		if unsafe.StringData(f) != unsafe.StringData(v) {
			t.Fatalf("two decoded copies of %s %q", what, v)
		}
		return 1
	}
	sources, docs := map[string]string{}, map[string]string{}
	repeats := [2]int{}
	for _, id := range sn.graph.TripleIDs() {
		tr, _ := sn.graph.Triple(id)
		repeats[0] += shared("source", sources, tr.Source)
	}
	sn.index.ForEachEmbedded(func(c retrieval.Chunk, _ retrieval.Vector) {
		repeats[1] += shared("document", docs, c.DocID)
	})
	if repeats[0] == 0 || repeats[1] == 0 {
		t.Fatalf("repeated sources, documents = %v: the corpus must repeat both", repeats)
	}
}

// unbackedRecords and unbackedCheckpoints are payloads whose counts no bytes
// back: a record opening with 2³¹-1 batches the way format 1 did (5 bytes),
// records of formats 2, 3 and 4 claiming as many batches or files, and
// format-4 checkpoint bodies claiming as many entities, predicates, triple
// slots or store rows. Sizing a preallocation by any of these counts asks the
// runtime for tens of gigabytes and ends the process; looping over one spins
// for seconds.
var (
	unbackedRecords = [][]byte{
		binary.AppendUvarint(nil, 1<<31-1),
		binary.AppendUvarint([]byte{0, 2}, 1<<31-1),
		binary.AppendUvarint([]byte{0, 2, 1}, 1<<31-1),
		binary.AppendUvarint([]byte{0, 3}, 1<<31-1),
		binary.AppendUvarint([]byte{0, 3, 1}, 1<<31-1),
		binary.AppendUvarint([]byte{0, recordVersion}, 1<<31-1),
		binary.AppendUvarint([]byte{0, recordVersion, 1}, 1<<31-1),
	}
	unbackedCheckpoints = [][]byte{
		binary.AppendUvarint([]byte{snapshotVersion}, 1<<31-1),       // entities
		binary.AppendUvarint([]byte{snapshotVersion, 0}, 1<<31-1),    // predicates
		binary.AppendUvarint([]byte{snapshotVersion, 0, 0}, 1<<31-1), // triple slots
		// An empty graph, then the store's width and its row count.
		binary.AppendUvarint(binary.AppendUvarint([]byte{snapshotVersion, 0, 0, 0}, retrieval.DefaultDim), 1<<31-1),
	}
)

// replayFresh replays one WAL record payload into an empty graph and store,
// as recovery replays a record onto its checkpoint, and returns the store.
func replayFresh(payload []byte) (*retrieval.Index, error) {
	sc := getEmbedScratch(retrieval.DefaultDim)
	defer putEmbedScratch(sc)
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	err := replayRecord(payload, kg.New(), ix, sc, nil)
	return ix, err
}

// TestDecodeRejectsUnbackedCounts: a count the payload cannot back is an
// error — from the record replay directly, and through ReplicaApply and
// SeedReplica, the two doors a peer's bytes come in by — never an allocation
// sized by it, nor a loop that runs to it.
func TestDecodeRejectsUnbackedCounts(t *testing.T) {
	for i, rec := range unbackedRecords {
		if _, err := replayFresh(rec); err == nil {
			t.Errorf("record %d: replayRecord accepted %x", i, rec)
		}
		if err := NewSystem(format1Config()).ReplicaApply(rec); err == nil {
			t.Errorf("record %d: ReplicaApply accepted %x", i, rec)
		}
	}
	// The bodies are in the format this release reads, so the error comes
	// from the count, not from the version check in front of it.
	for i, body := range unbackedCheckpoints {
		if err := NewSystem(format1Config()).SeedReplica(body, 0); err == nil || errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("SeedReplica on format-4 body %d with an unbacked count: %v", i, err)
		}
	}
}

// FuzzRecoveredPayload feeds arbitrary bytes to the two decoders recovery and
// replication run over bytes from disk or a peer — the WAL group record and
// the checkpoint body — and to the replica doors in front of them. The seeds
// are a record and a checkpoint body in format 4, which decode, and in
// formats 3, 2 and 1 (with the format1-nan-weight corpus entry), which must
// be rejected, and the unbacked counts. Any input may be rejected; none may crash, and a
// record that replays must leave one embedded row per chunk in the store.
func FuzzRecoveredPayload(f *testing.F) {
	primary, _, err := OpenFS(wal.NewMemFS(), durDir, format1Config())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { primary.Close() })
	if _, err := primary.Ingest(format1Batches()[3]); err != nil {
		f.Fatal(err)
	}
	f.Add(logRecords(f, primary, 0, 1)[0])  // format-4 record
	f.Add(primary.ServingHandle().Encode()) // format-4 checkpoint body
	for _, fx := range []struct {
		dir string
		lsn uint64
	}{{format3Dir, 2}, {format2Dir, 2}, {format1Dir, 3}} {
		sr, err := wal.Scan(wal.OSFS{}, fx.dir, fx.lsn)
		if err != nil || len(sr.Records) == 0 {
			f.Fatalf("%s records: %v", fx.dir, err)
		}
		body, _, err := wal.LoadCheckpoint(wal.OSFS{}, fx.dir)
		if err != nil || body == nil {
			f.Fatalf("%s checkpoint: %v", fx.dir, err)
		}
		_, recErr := replayFresh(sr.Records[0])
		bodyErr := NewSystem(format1Config()).SeedReplica(body, fx.lsn)
		if !errors.Is(recErr, ErrUnsupportedFormat) || !errors.Is(bodyErr, ErrUnsupportedFormat) {
			f.Fatalf("%s: record %v, checkpoint %v; want both ErrUnsupportedFormat", fx.dir, recErr, bodyErr)
		}
		f.Add(sr.Records[0])
		f.Add(body)
	}
	for _, rec := range unbackedRecords {
		f.Add(rec)
	}
	for _, body := range unbackedCheckpoints {
		f.Add(body)
	}

	cfg := format1Config()
	f.Fuzz(func(t *testing.T, payload []byte) {
		if ix, err := replayFresh(payload); err == nil {
			rows := 0
			ix.ForEachEmbedded(func(retrieval.Chunk, retrieval.Vector) { rows++ })
			if rows != ix.Len() {
				t.Fatalf("%d embedded rows for %d chunks", rows, ix.Len())
			}
		}
		_ = NewSystem(cfg).ReplicaApply(payload)
		_ = NewSystem(cfg).SeedReplica(payload, 0)
	})
}
