package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/extract"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
	"multirag/internal/wal"
)

// ingestBatch builds one deterministic batch: a kg-format feed plus a text
// file, both about "Item <k>" (subjects collide across batches when k wraps,
// so homologous groups grow across group commits).
func ingestBatch(k int) []adapter.RawFile {
	subj := fmt.Sprintf("Item %d", k%5)
	kgContent := fmt.Sprintf("%s|status|Active\n%s|category|cat-%d\n%s|owner|Person %d\n",
		subj, subj, k%3, subj, k%4)
	text := fmt.Sprintf("The gate of %s is G%d.", subj, k%7)
	return []adapter.RawFile{
		{Domain: "fleet", Source: fmt.Sprintf("feed-%d", k), Name: "facts", Format: "kg", Content: []byte(kgContent)},
		{Domain: "fleet", Source: fmt.Sprintf("notes-%d", k), Name: "notes", Format: "text", Content: []byte(text)},
	}
}

// disjointBatch is ingestBatch with per-batch-unique subjects and two
// agreeing sources, so final answers are interleaving-independent (triple IDs
// differ across commit orders, but values never conflict).
func disjointBatch(k int) []adapter.RawFile {
	subj := fmt.Sprintf("Unit %d", k)
	content := fmt.Sprintf("%s|status|Ready\n%s|zone|Z%d\n", subj, subj, k%4)
	return []adapter.RawFile{
		{Domain: "fleet", Source: fmt.Sprintf("feed-a-%d", k), Name: "facts", Format: "kg", Content: []byte(content)},
		{Domain: "fleet", Source: fmt.Sprintf("feed-b-%d", k), Name: "facts", Format: "kg", Content: []byte(content)},
	}
}

// requireSameGraph asserts two systems publish bit-identical graphs: same
// triple ID sequence, same triple contents, same entities.
func requireSameGraph(t *testing.T, got, want *System) {
	t.Helper()
	if !reflect.DeepEqual(got.Graph().TripleIDs(), want.Graph().TripleIDs()) {
		t.Fatal("triple ID sequences diverge")
	}
	for _, id := range want.Graph().TripleIDs() {
		gt, _ := got.Graph().Triple(id)
		wt, _ := want.Graph().Triple(id)
		if !reflect.DeepEqual(gt, wt) {
			t.Fatalf("triple %s diverges:\n got  %+v\n want %+v", id, gt, wt)
		}
	}
	if !reflect.DeepEqual(entityIDs(got.Graph()), entityIDs(want.Graph())) {
		t.Fatal("entity sets diverge")
	}
	if !reflect.DeepEqual(got.SG().ComputeStats(), want.SG().ComputeStats()) {
		t.Fatalf("SG stats diverge: %+v vs %+v", got.SG().ComputeStats(), want.SG().ComputeStats())
	}
	if got.Index().Len() != want.Index().Len() {
		t.Fatalf("index sizes diverge: %d vs %d", got.Index().Len(), want.Index().Len())
	}
}

// TestPreparedVectorsStoredForm: a prepared batch carries each chunk's vector
// as a sparse row beside its file's part of the WAL record, not as a dense row
// and not in the part. The part decodes to the file's chunks and nothing else,
// and the rows the commit posts — prepared in stage 1, or re-embedded when the
// part is replayed without them — are Embed of the chunk texts, bit for bit.
func TestPreparedVectorsStoredForm(t *testing.T) {
	s := NewSystem(format1Config())
	files := formatBatches(t)[1] // alerts.txt: one document, two chunks
	p := &prepared{}
	s.prepare(p, files)
	if p.err != nil {
		t.Fatal(p.err)
	}
	w := p.work[0]
	chunks := oracleFiles(t, s, files)[0].chunks
	if len(chunks) < 2 || w.chunks != len(chunks) || w.rows.Len() != len(chunks) {
		t.Fatalf("%d chunks rendered, %d counted, %d sparse rows; want at least two of each, paired", len(chunks), w.chunks, w.rows.Len())
	}
	vecs := make([]retrieval.Vector, len(chunks))
	for j, c := range chunks {
		vecs[j] = retrieval.Embed(c.Text, retrieval.DefaultDim)
	}
	want := retrieval.NewIndex(retrieval.DefaultDim)
	if err := want.AddEmbeddedBatch(chunks, vecs); err != nil {
		t.Fatal(err)
	}
	sc := getEmbedScratch(retrieval.DefaultDim)
	defer putEmbedScratch(sc)
	for name, rows := range map[string]*retrieval.Sparse{"prepared": &w.rows, "decoded": nil} {
		got := retrieval.NewIndex(retrieval.DefaultDim)
		d := wal.NewDecoder(w.part)
		err := replayPart(d, kg.New(), got, rows, sc)
		if err == nil {
			err = d.Finish()
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var decoded []retrieval.Chunk
		got.ForEachEmbedded(func(c retrieval.Chunk, _ retrieval.Vector) { decoded = append(decoded, c) })
		if !slices.Equal(decoded, chunks) {
			t.Fatalf("%s: the part decodes to %v, want the file's chunks", name, decoded)
		}
		if !bytes.Equal(derivedState(&snapshot{index: got}), derivedState(&snapshot{index: want})) {
			t.Fatalf("%s rows post other vectors than Embed of the chunk texts", name)
		}
	}
}

// poison appends to a prepared batch one more file, whose part encodes a
// triple with a subject no entity has: the batch's own files replay fully —
// mutating the shared commit clone — and then the graph rejects the triple,
// exercising the committer's rollback-by-re-replay path.
func poison(p *prepared) {
	var e wal.Encoder
	e.Int(1) // one op
	e.Bool(false)
	e.Front("", "poison#unknown-subject")
	e.String("status")
	e.String("poisoned")
	for range 5 { // object entity, source, domain, format, chunk
		e.Front("", "")
	}
	e.F64(1)
	e.Int(0) // no chunks
	p.work = append(p.work[:len(p.work):len(p.work)], fileWork{part: e.Bytes()})
}

// TestGroupCommitMidGroupFailure is the group-atomicity contract: when one
// batch of a commit group fails mid-replay (after mutating the shared
// clone), the committer publishes its group-mates and nothing of the failed
// batch, in one snapshot.
func TestGroupCommitMidGroupFailure(t *testing.T) {
	s := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	genBefore := s.snap.Load().gen

	var group []*prepared
	for k := 0; k < 3; k++ {
		p := &prepared{}
		s.admit(p)
		s.prepare(p, ingestBatch(k))
		if p.err != nil {
			t.Fatal(p.err)
		}
		group = append(group, p)
	}
	// Poison the middle batch: it fails after its own files replayed.
	poison(group[1])
	s.commitGroup(group)
	s.gc.nextCommit += 3 // direct commitGroup bypassed commitJoin's bookkeeping
	s.gc.inflight -= 3

	if group[0].err != nil || group[2].err != nil {
		t.Fatalf("group-mates must commit: %v / %v", group[0].err, group[2].err)
	}
	if group[1].err == nil {
		t.Fatal("poisoned batch must report its failure")
	}
	if got := s.snap.Load().gen; got != genBefore+1 {
		t.Fatalf("group must publish exactly one snapshot: gen %d -> %d", genBefore, got)
	}

	// The published state must equal a sequential ingest of only the
	// surviving batches.
	want := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	for _, k := range []int{0, 2} {
		if _, err := want.Ingest(ingestBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	requireSameGraph(t, s, want)
	requireSGMatchesWalk(t, "published", s.SG())
}

// TestGroupCommitPerBatchReportsExact pins the per-batch report contract
// under group commit: each batch's entity/triple/chunk deltas equal what the
// batch reports when ingested alone.
func TestGroupCommitPerBatchReportsExact(t *testing.T) {
	s := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	var group []*prepared
	for k := 0; k < 3; k++ {
		p := &prepared{}
		s.admit(p)
		s.prepare(p, disjointBatch(k))
		if p.err != nil {
			t.Fatal(p.err)
		}
		group = append(group, p)
	}
	s.commitGroup(group)
	s.gc.nextCommit += 3
	s.gc.inflight -= 3

	for k, p := range group {
		solo := NewSystem(Config{LLM: llm.Config{Seed: 1}})
		rep, err := solo.Ingest(disjointBatch(k))
		if err != nil {
			t.Fatal(err)
		}
		if p.rep.Extraction.Entities != rep.Extraction.Entities ||
			p.rep.Extraction.Triples != rep.Extraction.Triples ||
			p.rep.Chunks != rep.Chunks {
			t.Fatalf("batch %d deltas diverge under group commit: %+v vs solo %+v (chunks %d vs %d)",
				k, p.rep.Extraction, rep.Extraction, p.rep.Chunks, rep.Chunks)
		}
		if !reflect.DeepEqual(p.rep.Extraction.ByFormat, rep.Extraction.ByFormat) {
			t.Fatalf("batch %d ByFormat diverges: %v vs %v", k, p.rep.Extraction.ByFormat, rep.Extraction.ByFormat)
		}
	}
}

// TestPipelinedIngestMatchesSequentialOrdered is the equivalence property
// test for a controlled arrival order: concurrent producers whose Ingest
// calls are admitted in a known ticket order must publish a final graph, SG
// and index bit-identical to ingesting the same batches one by one — however
// the stage-1 fan-outs and group commits interleave.
func TestPipelinedIngestMatchesSequentialOrdered(t *testing.T) {
	const batches = 12
	s := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	gates := make([]chan struct{}, batches+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[0])
	s.gc.testAdmitted = func(ticket uint64) { close(gates[ticket+1]) }

	var wg sync.WaitGroup
	wg.Add(batches)
	for k := 0; k < batches; k++ {
		go func(k int) {
			defer wg.Done()
			<-gates[k] // enter Ingest only after ticket k-1 is assigned
			if _, err := s.Ingest(ingestBatch(k)); err != nil {
				t.Errorf("batch %d: %v", k, err)
			}
		}(k)
	}
	wg.Wait()

	want := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	for k := 0; k < batches; k++ {
		if _, err := want.Ingest(ingestBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	requireSameGraph(t, s, want)

	for _, q := range []string{"What is the status of Item 2?", "What is the gate of Item 1?"} {
		ga, wa := s.Query(q), want.Query(q)
		if !reflect.DeepEqual(ga.Values, wa.Values) {
			t.Fatalf("answers diverge for %q: %v vs %v", q, ga.Values, wa.Values)
		}
	}
}

// tripleMultiset renders a graph's triples as a sorted content multiset —
// the order-insensitive observable free-interleaving runs are compared on
// (triple IDs depend on commit order; contents do not).
func tripleMultiset(g *kg.Graph) []string {
	out := make([]string, 0, g.NumTriples())
	for _, id := range g.TripleIDs() {
		tr, _ := g.Triple(id)
		out = append(out, fmt.Sprintf("%s|%s|%s|%s|%s|%g", g.Subject(tr), g.Predicate(tr), tr.Object, tr.Source, g.Format(tr), tr.Weight))
	}
	sort.Strings(out)
	return out
}

// TestPipelinedIngestAnyInterleaving lets producers race freely (arrival
// order is whatever the scheduler produces) and checks the final state
// against the sequential reference on order-insensitive observables.
func TestPipelinedIngestAnyInterleaving(t *testing.T) {
	const batches = 16
	s := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	var next atomic.Int64
	var wg sync.WaitGroup
	const producers = 4
	wg.Add(producers)
	for w := 0; w < producers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= batches {
					return
				}
				if _, err := s.Ingest(disjointBatch(k)); err != nil {
					t.Errorf("batch %d: %v", k, err)
				}
			}
		}()
	}
	wg.Wait()

	want := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	for k := 0; k < batches; k++ {
		if _, err := want.Ingest(disjointBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(tripleMultiset(s.Graph()), tripleMultiset(want.Graph())) {
		t.Fatal("triple content multisets diverge from sequential reference")
	}
	if !reflect.DeepEqual(entityIDs(s.Graph()), entityIDs(want.Graph())) {
		t.Fatal("entity sets diverge from sequential reference")
	}
	if s.SG().ComputeStats() != want.SG().ComputeStats() {
		t.Fatalf("SG stats diverge: %+v vs %+v", s.SG().ComputeStats(), want.SG().ComputeStats())
	}
	if s.Index().Len() != want.Index().Len() {
		t.Fatalf("index sizes diverge: %d vs %d", s.Index().Len(), want.Index().Len())
	}
	for k := 0; k < batches; k++ {
		q := fmt.Sprintf("What is the status of Unit %d?", k)
		ga, wa := s.Query(q), want.Query(q)
		if !reflect.DeepEqual(ga.Values, wa.Values) {
			t.Fatalf("answers diverge for %q: %v vs %v", q, ga.Values, wa.Values)
		}
	}
}

// TestIngestStressNoTornSnapshot races group-committing producers against
// Query/QueryEach readers (run under -race): every observed snapshot must be
// internally consistent — the SG belongs to the graph it was built over, its
// incremental stats agree with the walking oracle — and a producer's own
// committed batches must be immediately visible to queries.
func TestIngestStressNoTornSnapshot(t *testing.T) {
	const producers = 3
	const perProducer = 6
	s := NewSystem(Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	var committed atomic.Int64 // high-water mark over disjointBatch indexes
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(producers)
	var next atomic.Int64
	for w := 0; w < producers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= producers*perProducer {
					return
				}
				if _, err := s.Ingest(disjointBatch(k)); err != nil {
					t.Errorf("batch %d: %v", k, err)
					return
				}
				for {
					cur := committed.Load()
					if int64(k) < cur || committed.CompareAndSwap(cur, int64(k)+1) {
						break
					}
				}
			}
		}()
	}

	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				g, sg, ix := s.Serving()
				if sg.Graph() != g {
					t.Error("torn snapshot: SG does not belong to the served graph")
					return
				}
				if st, walk := sg.ComputeStats(), walkKeys(g).stats; st != walk {
					t.Errorf("torn stats: %+v vs key walk %+v", st, walk)
					return
				}
				_ = ix.Len()
				if hw := committed.Load(); hw > 0 {
					k := int(hw) - 1
					ans := s.Query(fmt.Sprintf("What is the status of Unit %d?", k))
					if !ans.Found {
						t.Errorf("committed batch %d invisible to reader", k)
						return
					}
					s.QueryEach(nil, []string{
						fmt.Sprintf("What is the zone of Unit %d?", k),
						fmt.Sprintf("What is the status of Unit %d?", k/2),
					})
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	// Each batch contributes two agreeing 2-triple feeds.
	if got, want := s.Graph().NumTriples(), producers*perProducer*4; got != want {
		t.Fatalf("lost or duplicated batches: %d triples, want %d", got, want)
	}
}

// ingestSequential is the serialized reference write path: one batch at a
// time on the caller's goroutine, prepared, replayed onto a clone and
// published as its own snapshot.
func ingestSequential(s *System, files []adapter.RawFile) (IngestReport, error) {
	var rep IngestReport
	fused, err := s.registry.FuseParallel(files, 1)
	if err != nil {
		return rep, err
	}
	work := s.prepareFiles(extract.New(s.ingestModel), fused)
	for i := range work {
		if work[i].err != nil {
			return rep, work[i].err
		}
	}
	cur := s.snap.Load()
	g := cur.graph.Clone()
	ix := cur.index.CloneForAppend()
	entBefore, triBefore := g.NumEntities(), g.NumTriples()
	sc := getEmbedScratch(ix.Dim())
	defer putEmbedScratch(sc)
	for i := range work {
		d := wal.NewDecoder(work[i].part)
		if err = replayPart(d, g, ix, &work[i].rows, sc); err == nil {
			err = d.Finish()
		}
		if err != nil {
			return rep, err
		}
	}
	rep.Extraction = extract.Report{ByFormat: map[string]int{}}
	for i := range work {
		rep.Extraction.Merge(work[i].report)
		rep.Chunks += work[i].chunks
	}
	rep.Extraction.Entities = g.NumEntities() - entBefore
	rep.Extraction.Triples = g.NumTriples() - triBefore
	s.snap.Store(&snapshot{graph: g, sg: linegraph.Build(g), index: ix, gen: cur.gen + 1})
	return rep, nil
}

// TestSerializeIngestMatchesPipelined: the pipelined group-committing path
// and the serialized reference publish identical corpora and identical
// per-batch reports for the same batch sequence.
func TestSerializeIngestMatchesPipelined(t *testing.T) {
	pipe := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	base := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	for k := 0; k < 6; k++ {
		rp, err := pipe.Ingest(ingestBatch(k))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ingestSequential(base, ingestBatch(k))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rp, rb) {
			t.Fatalf("batch %d reports diverge:\n pipelined  %+v\n serialized %+v", k, rp, rb)
		}
	}
	requireSameGraph(t, pipe, base)
}

// entityIDs lists g's canonical entity IDs, sorted.
func entityIDs(g *kg.Graph) []string {
	ids := make([]string, g.NumEntities())
	for h := range ids {
		ids[h] = g.EntityAt(int32(h)).ID
	}
	slices.Sort(ids)
	return ids
}
