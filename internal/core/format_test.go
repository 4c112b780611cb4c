package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"multirag/internal/adapter"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
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
// from the same files by the same procedure (writeFormat).
const format3Dir = "testdata/format3"

// format3Digest is the snapshot digest the first format-3 release computed
// for format3Dir reopened.
const format3Digest = 0x718344dcba09db09

// formatBatches reads the ingest history behind format2Dir and format3Dir:
// two commits before the checkpoint, then one commit of three files.
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
// format2Dir and format3Dir were written and returns the still-open system:
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

// dirFiles returns every file in dir by name with its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestOpenFormat1Directory: format 1 is no longer read. The directory a
// format-1 release wrote — a format-1 checkpoint plus a tail of format-1
// records — fails Open with ErrUnsupportedFormat and is left byte for byte as
// it was, and so does its record tail alone, with no checkpoint in front of
// it. The replica doors reject the same checkpoint body and records the same
// way and publish nothing.
func TestOpenFormat1Directory(t *testing.T) {
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
	if err := os.CopyFS(dir, os.DirFS(format1Dir)); err != nil {
		t.Fatal(err)
	}
	openRejected(dir)

	tail := filepath.Join(t.TempDir(), "tail")
	if err := os.Mkdir(tail, 0o755); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(format1Dir, "wal-0000000000000003.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tail, "wal-0000000000000000.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	openRejected(tail)

	body, _, err := wal.LoadCheckpoint(wal.OSFS{}, format1Dir)
	if err != nil || body == nil {
		t.Fatalf("format-1 checkpoint: %v", err)
	}
	r := NewSystem(format1Config())
	if err := r.SeedReplica(body, 3); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("SeedReplica: %v, want ErrUnsupportedFormat", err)
	}
	sr, err := wal.Scan(wal.OSFS{}, format1Dir, 3)
	if err != nil || len(sr.Records) != 4 {
		t.Fatalf("format-1 records: %v", err)
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

// TestFormat3Bytes pins format 3 byte for byte: re-ingesting the files behind
// format3Dir into a fresh directory writes exactly the checkpoint and WAL
// segment the first format-3 release wrote, and the fixture reopens to the
// snapshot digest that release computed.
func TestFormat3Bytes(t *testing.T) {
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
		want, err := os.ReadFile(filepath.Join(format3Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the fixture (%d bytes, fixture %d)", name, len(got), len(want))
		}
	}
	if d := s.SnapshotDigest(); d != format3Digest {
		t.Errorf("re-ingested snapshot digest %#016x, want %#016x", d, uint64(format3Digest))
	}

	r, info := openCopy(t, format3Dir)
	defer r.Close()
	if *info != (RecoveryInfo{CheckpointLSN: 2, RecordsReplayed: 1}) {
		t.Fatalf("recovery info %+v, want the checkpoint at LSN 2 and 1 replayed record", *info)
	}
	if d := r.SnapshotDigest(); d != format3Digest {
		t.Fatalf("reopened fixture digest %#016x, want %#016x", d, uint64(format3Digest))
	}
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

// TestOpenFormat2Directory is the migration path from format 2. The format-2
// fixture, left byte for byte as the format-2 release wrote it, opens with its
// one record replayed to the digest of the same files ingested fresh. A
// commit on top appends a format-3 record behind the format-2 one in the same
// segment; a copy of that mixed directory taken before Close reopens to the
// same digest; and Close rewrites the state as a format-3 checkpoint.
func TestOpenFormat2Directory(t *testing.T) {
	fresh := writeFormat(t, filepath.Join(t.TempDir(), "fresh"))
	freshDigest := fresh.SnapshotDigest()
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	s, info := openCopy(t, format2Dir)
	defer s.Close()
	if *info != (RecoveryInfo{CheckpointLSN: 2, RecordsReplayed: 1}) {
		t.Fatalf("recovery info %+v, want the checkpoint at LSN 2 and 1 replayed record", *info)
	}
	if d := s.SnapshotDigest(); d != freshDigest {
		t.Fatalf("format-2 fixture reopened to digest %#016x, the files ingested fresh %#016x", d, freshDigest)
	}
	requireAnswer(t, s, "What is the status of CA981?", "Delayed")

	if _, err := s.Ingest(format1Batches()[3]); err != nil {
		t.Fatal(err)
	}
	dir := s.dur.dir
	sr, err := wal.Scan(wal.OSFS{}, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var versions []byte
	for _, rec := range sr.Records {
		versions = append(versions, rec[1]) // after the 0 tag
	}
	if !bytes.Equal(versions, []byte{plainVersion, recordVersion}) {
		t.Fatalf("segment holds records of versions %v, want a format-2 record then a format-3 one", versions)
	}
	want := s.SnapshotDigest()
	mixed, info := openCopy(t, dir)
	if info.RecordsReplayed != 2 {
		t.Fatalf("the mixed copy replayed %d records, want 2", info.RecordsReplayed)
	}
	if d := mixed.SnapshotDigest(); d != want {
		t.Fatalf("mixed copy reopened to digest %#016x, the directory it was copied from %#016x", d, want)
	}
	if err := mixed.Close(); err != nil {
		t.Fatal(err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	body, lsn, err := wal.LoadCheckpoint(wal.OSFS{}, dir)
	if err != nil || body == nil || lsn != 4 {
		t.Fatalf("checkpoint after Close: LSN %d, %v", lsn, err)
	}
	if body[0] != snapshotVersion {
		t.Fatalf("Close wrote a version-%d checkpoint, want %d", body[0], snapshotVersion)
	}
	r, info := openCopy(t, dir)
	defer r.Close()
	if info.RecordsReplayed != 0 || r.SnapshotDigest() != want {
		t.Fatalf("reopened after Close: %+v, digest %#016x, want %#016x", *info, r.SnapshotDigest(), want)
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

// unbackedCounts are payloads whose counts no bytes back: a record opening
// with 2³¹-1 batches the way format 1 did (5 bytes), records of formats 2 and
// 3 claiming as many batches or files, and line-graph bodies with one node of
// 2³¹-1 members in either layout (6 and 7 bytes).
// Sizing a preallocation by any of these counts asks the runtime for tens of
// gigabytes and ends the process.
var (
	unbackedRecords = [][]byte{
		binary.AppendUvarint(nil, 1<<31-1),
		binary.AppendUvarint([]byte{0, plainVersion}, 1<<31-1),
		binary.AppendUvarint([]byte{0, plainVersion, 1}, 1<<31-1),
		binary.AppendUvarint([]byte{0, recordVersion}, 1<<31-1),
		binary.AppendUvarint([]byte{0, recordVersion, 1}, 1<<31-1),
	}
	unbackedSG      = binary.AppendUvarint([]byte{1}, 1<<31-1)
	unbackedKeyedSG = binary.AppendUvarint([]byte{1, 0}, 1<<31-1) // format 2: an empty key first
)

// unbackedCheckpoint is a checkpoint body of version v around sg: an empty
// graph, then the line graph with the unbacked member count.
func unbackedCheckpoint(v uint64, sg []byte) []byte {
	var e wal.Encoder
	e.Uvarint(v)
	kg.New().EncodeTo(&e) // an empty graph encodes the same in formats 2 and 3
	e.Bool(true)
	return append(e.Bytes(), sg...)
}

// unbackedCheckpoints are unbackedCheckpoint in formats 2 and 3.
func unbackedCheckpoints() [][]byte {
	return [][]byte{unbackedCheckpoint(plainVersion, unbackedKeyedSG), unbackedCheckpoint(snapshotVersion, unbackedSG)}
}

// TestDecodeRejectsUnbackedCounts: a count the payload cannot back is an
// error — from the record decoder and the line-graph decoder directly, and
// through ReplicaApply and SeedReplica, the two doors a peer's bytes come in
// by — never an allocation sized by it.
func TestDecodeRejectsUnbackedCounts(t *testing.T) {
	for i, rec := range unbackedRecords {
		if _, err := decodeGroupRecord(rec, retrieval.DefaultDim); err == nil {
			t.Errorf("record %d: decodeGroupRecord accepted %x", i, rec)
		}
		if err := NewSystem(format1Config()).ReplicaApply(rec); err == nil {
			t.Errorf("record %d: ReplicaApply accepted %x", i, rec)
		}
	}
	if _, err := linegraph.DecodeSG(wal.NewDecoder(unbackedSG), kg.New(), false); err == nil {
		t.Errorf("DecodeSG accepted %x", unbackedSG)
	}
	if _, err := linegraph.DecodeSG(wal.NewDecoder(unbackedKeyedSG), kg.New(), true); err == nil {
		t.Errorf("DecodeSG accepted keyed %x", unbackedKeyedSG)
	}
	// The bodies are in formats this release reads, so the error comes from
	// DecodeSG, not from the version check in front of it.
	for _, body := range unbackedCheckpoints() {
		if err := NewSystem(format1Config()).SeedReplica(body, 0); err == nil || errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("SeedReplica on a version-%d body with an unbacked member count: %v", body[0], err)
		}
	}
}

// FuzzRecoveredPayload feeds arbitrary bytes to the two decoders recovery and
// replication run over bytes from disk or a peer — the WAL group record and
// the checkpoint body — and to the replica doors in front of them. The seeds
// are a record and a checkpoint body in each of formats 3 and 2, which
// decode, and in format 1 (with the format1-nan-weight corpus entry), which
// must be rejected. Any input may be rejected; none may
// crash, and a record that decodes must hold one stored vector per chunk, each
// of the store's width.
func FuzzRecoveredPayload(f *testing.F) {
	primary, _, err := OpenFS(wal.NewMemFS(), durDir, format1Config())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { primary.Close() })
	if _, err := primary.Ingest(format1Batches()[3]); err != nil {
		f.Fatal(err)
	}
	f.Add(logRecords(f, primary, 0, 1)[0])  // format-3 record
	f.Add(primary.ServingHandle().Encode()) // format-3 checkpoint body
	sr2, err := wal.Scan(wal.OSFS{}, format2Dir, 2)
	if err != nil || len(sr2.Records) == 0 {
		f.Fatalf("format-2 records: %v", err)
	}
	f.Add(sr2.Records[0]) // format-2 record
	body2, _, err := wal.LoadCheckpoint(wal.OSFS{}, format2Dir)
	if err != nil || body2 == nil {
		f.Fatalf("format-2 checkpoint: %v", err)
	}
	f.Add(body2) // format-2 checkpoint body
	sr, err := wal.Scan(wal.OSFS{}, format1Dir, 3)
	if err != nil || len(sr.Records) == 0 {
		f.Fatalf("format-1 records: %v", err)
	}
	f.Add(sr.Records[0]) // format-1 record: rejected
	body, _, err := wal.LoadCheckpoint(wal.OSFS{}, format1Dir)
	if err != nil || body == nil {
		f.Fatalf("format-1 checkpoint: %v", err)
	}
	f.Add(body) // format-1 checkpoint body: rejected
	for _, rec := range unbackedRecords {
		f.Add(rec)
	}
	for _, body := range unbackedCheckpoints() {
		f.Add(body)
	}

	cfg := format1Config()
	f.Fuzz(func(t *testing.T, payload []byte) {
		if batches, err := decodeGroupRecord(payload, retrieval.DefaultDim); err == nil {
			for _, files := range batches {
				for _, rf := range files {
					if len(rf.vecs) != len(rf.chunks) {
						t.Fatalf("%d vectors for %d chunks", len(rf.vecs), len(rf.chunks))
					}
					for _, b := range rf.vecs {
						d := wal.NewDecoder(b)
						retrieval.DecodeVector(d, make(retrieval.Vector, retrieval.DefaultDim))
						if err := d.Finish(); err != nil {
							t.Fatalf("decoded vector %x does not read back at the store's width: %v", b, err)
						}
					}
				}
			}
		}
		_ = NewSystem(cfg).ReplicaApply(payload)
		_ = NewSystem(cfg).SeedReplica(payload, 0)
	})
}
