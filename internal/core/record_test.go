package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/extract"
	"multirag/internal/kg"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// captureSink is an extract.Sink that keeps the operation stream op by op,
// as extraction hands it over, with the same validation as extract.Recorder:
// the record oracle's independent view of a file, which no encoder touched.
type captureSink struct {
	ops      []capturedOp
	entities map[string]bool
	triples  int
}

// capturedOp is an entity op when entity is set, a triple op otherwise.
type capturedOp struct {
	entity            bool
	name, typ, domain string
	fact              kg.Fact
}

func (c *captureSink) AddEntity(name, typ, domain string) string {
	id := kg.CanonicalID(name)
	if id == "" {
		return ""
	}
	c.ops = append(c.ops, capturedOp{entity: true, name: name, typ: typ, domain: domain})
	if c.entities == nil {
		c.entities = map[string]bool{}
	}
	c.entities[id] = true
	return id
}

func (c *captureSink) AddTriple(f kg.Fact) (string, error) {
	if !c.entities[f.Subject] {
		return "", fmt.Errorf("kg: unknown subject entity %q", f.Subject)
	}
	if f.Predicate == "" {
		return "", fmt.Errorf("kg: triple with empty predicate (subject %q)", f.Subject)
	}
	c.ops = append(c.ops, capturedOp{fact: f})
	c.triples++
	return "", nil
}

func (c *captureSink) NumEntities() int { return len(c.entities) }
func (c *captureSink) NumTriples() int  { return c.triples }

// oracleFile is one file as the record oracle sees it: the op stream its
// extraction hands a capturing sink, and its rendered chunks.
type oracleFile struct {
	ops    []capturedOp
	chunks []retrieval.Chunk
}

// oracleFiles re-runs stage 1's fusion, extraction and chunk rendering over
// files on the test's goroutine, capturing each file instead of encoding it.
// The simulated model is deterministic, so it sees what s.prepare saw.
func oracleFiles(t *testing.T, s *System, files []adapter.RawFile) []oracleFile {
	t.Helper()
	fused, err := s.registry.FuseParallel(files, 1)
	if err != nil {
		t.Fatal(err)
	}
	ext := extract.New(s.ingestModel.Fork())
	out := make([]oracleFile, len(fused))
	for i, f := range fused {
		var c captureSink
		if _, err := ext.BuildFile(&c, f); err != nil {
			t.Fatal(err)
		}
		out[i] = oracleFile{ops: c.ops, chunks: refRenderChunks(f, chunkBudget)}
	}
	return out
}

// oracleEncodeGroupRecord is the group record as it was written before the
// record's file parts moved into stage 1: the whole record encoded field by
// field under the commit lock from each file's captured op stream and chunks.
// It writes format 4: the repeating columns front-coded against the previous
// row of the same file, and no vectors.
func oracleEncodeGroupRecord(e *wal.Encoder, committed [][]oracleFile) {
	e.Int(0)
	e.Uvarint(recordVersion)
	e.Int(len(committed))
	for _, files := range committed {
		e.Int(len(files))
		for _, w := range files {
			e.Int(len(w.ops))
			var prevEnt [2]string
			var prev kg.Fact
			for _, o := range w.ops {
				if o.entity {
					e.Bool(true)
					e.String(o.name)
					e.Front(prevEnt[0], o.typ)
					e.Front(prevEnt[1], o.domain)
					prevEnt = [2]string{o.typ, o.domain}
					continue
				}
				t := o.fact
				e.Bool(false)
				e.Front(prev.Subject, t.Subject)
				e.String(t.Predicate)
				e.String(t.Object)
				e.Front(prev.ObjectEntity, t.ObjectEntity)
				e.Front(prev.Source, t.Source)
				e.Front(prev.Domain, t.Domain)
				e.Front(prev.Format, t.Format)
				e.Front(prev.ChunkID, t.ChunkID)
				e.F64(t.Weight)
				prev = t
			}
			e.Int(len(w.chunks))
			var pc retrieval.Chunk
			for j := range w.chunks {
				c := &w.chunks[j]
				e.Front(pc.ID, c.ID)
				e.Front(pc.DocID, c.DocID)
				e.Front(pc.Source, c.Source)
				e.String(c.Text)
				pc = *c
			}
		}
	}
}

// randomRecordFile draws one input file for the record oracle: kg facts,
// multi-sentence text, CSV rows, JSON records, files that yield nothing (a
// header-only CSV, an empty JSON array, text with no sentence, an empty XML
// root), JSON records that yield entities but no chunk, and — when bad is
// set — a kg file with no triples, which fails its batch's preparation.
func randomRecordFile(rng *rand.Rand, k int, bad bool) adapter.RawFile {
	subj := func() string { return fmt.Sprintf("Item %d", rng.Intn(12)) }
	f := adapter.RawFile{Domain: "fleet", Source: fmt.Sprintf("src-%d", rng.Intn(5)), Name: fmt.Sprintf("f%d", k)}
	if bad {
		f.Format, f.Content = "kg", nil
		return f
	}
	var b strings.Builder
	switch rng.Intn(9) {
	case 0, 1:
		f.Format = "kg"
		for n := 1 + rng.Intn(6); n > 0; n-- {
			fmt.Fprintf(&b, "%s|%s|V%d\n", subj(), []string{"status", "zone", "owner"}[rng.Intn(3)], rng.Intn(4))
		}
	case 2, 3:
		f.Format = "text"
		for n := 1 + rng.Intn(30); n > 0; n-- {
			fmt.Fprintf(&b, "The gate of %s is G%d. Ünïcode Wörds and the OF. ", subj(), rng.Intn(9))
		}
	case 4:
		f.Format = "csv"
		b.WriteString("name,status,zone\n")
		for n := rng.Intn(5); n > 0; n-- {
			fmt.Fprintf(&b, "%s,S%d,Z%d\n", subj(), rng.Intn(3), rng.Intn(3))
		}
	case 5:
		f.Format = "json"
		b.WriteString("[")
		for n := rng.Intn(4); n > 0; n-- {
			fmt.Fprintf(&b, `{"name":%q,"status":"S%d"},`, subj(), rng.Intn(3))
		}
		b.WriteString(`{"name":"Tail","status":"S0"}]`)
	case 6:
		f.Format = "json" // an entity, no attribute, so no chunk
		fmt.Fprintf(&b, `[{"flight":%q}]`, subj())
	default:
		f.Format, f.Content = []string{"csv", "json", "text", "xml"}[rng.Intn(4)], nil
		b.WriteString(map[string]string{"csv": "flight,status\n", "json": "[]", "text": "...", "xml": "<root></root>"}[f.Format])
	}
	f.Content = []byte(b.String())
	return f
}

// TestGroupRecordMatchesOracle holds the WAL group record to the encoder it
// replaced, fed by a capturing sink, byte for byte, over random commit groups
// driven through the real committer and read back from the log: one to four batches of zero to five
// files, empty files, files with entities but no chunks, batches that fail to
// prepare and batches that fail mid-replay. The record holds the committed
// batches only.
func TestGroupRecordMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, _ := openDurable(t, wal.NewMemFS(), durTestConfig())
	var seen struct{ empty, chunkless, failed, poisoned, multi int }
	for round := 0; round < 60; round++ {
		var group []*prepared
		oracle := map[*prepared][]oracleFile{}
		for nb := 1 + rng.Intn(4); nb > 0; nb-- {
			bad := rng.Intn(6) == 0
			var files []adapter.RawFile
			for nf := rng.Intn(6); nf > 0; nf-- {
				files = append(files, randomRecordFile(rng, len(files), bad && nf == 1))
			}
			p := &prepared{}
			s.admit(p)
			s.prepare(p, files)
			group = append(group, p)
			if p.err != nil {
				seen.failed++
				continue
			}
			of := oracleFiles(t, s, files)
			oracle[p] = of
			for i := range p.work {
				w := &p.work[i]
				// Sized exactly up front: a buffer of len(part) bytes, not one
				// regrown by appends or sized by an estimate.
				if want := cap(slices.Grow([]byte(nil), len(w.part))); cap(w.part) != want {
					t.Fatalf("round %d: a %d-byte part in a %d-byte buffer, want %d", round, len(w.part), cap(w.part), want)
				}
				if w.chunks != len(of[i].chunks) || w.rows.Len() != w.chunks {
					t.Fatalf("round %d: file %d counts %d chunks and %d rows; the oracle %d chunks",
						round, i, w.chunks, w.rows.Len(), len(of[i].chunks))
				}
				if w.chunks == 0 {
					if len(of[i].ops) == 0 {
						seen.empty++
					} else {
						seen.chunkless++
					}
				}
			}
			if len(p.work) > 0 && rng.Intn(6) == 0 {
				poison(p)
				seen.poisoned++
			}
		}
		lsn := s.ReplicationLSN()
		s.commitGroup(group)
		s.gc.nextCommit += uint64(len(group)) // direct commitGroup bypassed commitJoin's bookkeeping
		s.gc.inflight -= len(group)

		var committed [][]oracleFile
		for _, p := range group {
			if p.err == nil {
				committed = append(committed, oracle[p])
			}
		}
		if len(committed) == 0 {
			if s.ReplicationLSN() != lsn {
				t.Fatalf("round %d: a group with nothing committed wrote a record", round)
			}
			continue
		}
		if len(committed) > 1 {
			seen.multi++
		}
		var want wal.Encoder
		oracleEncodeGroupRecord(&want, committed)
		got := logRecords(t, s, lsn, lsn+1)
		if len(got) != 1 || !bytes.Equal(got[0], want.Bytes()) {
			t.Fatalf("round %d: record of %d committed batches differs from the oracle's (%d records read)",
				round, len(committed), len(got))
		}
	}
	if seen.empty == 0 || seen.chunkless == 0 || seen.failed == 0 || seen.poisoned == 0 || seen.multi == 0 {
		t.Fatalf("the rounds missed a case: %+v", seen)
	}
}

// TestReplayPostsStoredVectors: replaying prepared files posts their
// vectors from the sparse rows stage 1 kept. It allocates no vector per chunk
// — no dense row, no re-embedding — only the store's own growth and the
// chunks' strings, kept in the arena the decoders share, as an engine's do:
// under a dense row's bytes per chunk, which the dense row alone used to cost
// on top of that growth, and far under one object per chunk.
func TestReplayPostsStoredVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	const n = 20000
	dim := retrieval.DefaultDim
	chunks := make([]retrieval.Chunk, n)
	for i := range chunks {
		chunks[i] = retrieval.Chunk{ID: fmt.Sprintf("d%d#c0", i), DocID: fmt.Sprintf("d%d", i), Source: "s",
			Text: fmt.Sprintf("The gate of Item %d is G%d, and its zone is Z%d.", i%977, i%13, i%7)}
	}
	var files []fileWork
	sc := getEmbedScratch(dim)
	defer putEmbedScratch(sc)
	for lo := 0; lo < n; lo += 500 {
		var f fileWork
		f.part, f.rows = encodeFile(extract.NewRecorder(), chunks[lo:lo+500], sc)
		files = append(files, f)
	}
	g, ix := kg.New(), retrieval.NewIndex(dim)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var strs wal.Arena
	var err error
	for i := 0; i < len(files) && err == nil; i++ {
		d := wal.NewDecoder(files[i].part)
		d.SetArena(&strs)
		if err = replayPart(d, g, ix, &files[i].rows, sc); err == nil {
			err = d.Finish()
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != n {
		t.Fatalf("replayed %d of %d chunks", ix.Len(), n)
	}
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
	objsPer := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("replay allocates %.0f B in %.3f objects per chunk (a dense row is %d B)", bytesPer, objsPer, dim*4)
	if bytesPer >= float64(dim*4) || objsPer >= 0.5 {
		t.Fatalf("replay allocates %.0f B in %.3f objects per chunk: a vector per chunk", bytesPer, objsPer)
	}
}
