package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/wal"
)

// TestIngestDeterministicAcrossWorkerCounts is the parallel-ingestion
// correctness contract: the published graph, line graph and answers must be
// bit-identical whatever the pool size, because extraction records per file
// and replays in deterministic order.
func TestIngestDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := datasets.Movies(7)
	spec.Entities = 25
	spec.Queries = 12
	d := datasets.MustGenerate(spec)

	build := func(workers int) *System {
		s := NewSystem(Config{Workers: workers, LLM: llm.Config{Seed: 1}})
		if _, err := s.Ingest(d.Files); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := build(1)
	parallel := build(8)

	if serial.Graph().NumEntities() != parallel.Graph().NumEntities() ||
		serial.Graph().NumTriples() != parallel.Graph().NumTriples() {
		t.Fatalf("graph sizes diverge: %d/%d vs %d/%d",
			serial.Graph().NumEntities(), serial.Graph().NumTriples(),
			parallel.Graph().NumEntities(), parallel.Graph().NumTriples())
	}
	if !reflect.DeepEqual(serial.Graph().TripleIDs(), parallel.Graph().TripleIDs()) {
		t.Fatal("triple ID sequences diverge across worker counts")
	}
	for _, id := range serial.Graph().TripleIDs() {
		st, _ := serial.Graph().Triple(id)
		pt, _ := parallel.Graph().Triple(id)
		if !reflect.DeepEqual(st, pt) {
			t.Fatalf("triple %s diverges:\n workers=1 %+v\n workers=8 %+v", id, st, pt)
		}
	}
	if !reflect.DeepEqual(serial.SG().ComputeStats(), parallel.SG().ComputeStats()) {
		t.Fatalf("SG stats diverge: %+v vs %+v", serial.SG().ComputeStats(), parallel.SG().ComputeStats())
	}
	if serial.Index().Len() != parallel.Index().Len() {
		t.Fatalf("index sizes diverge: %d vs %d", serial.Index().Len(), parallel.Index().Len())
	}
	for _, q := range d.Queries {
		sa := serial.Query(q.Text)
		pa := parallel.Query(q.Text)
		if !reflect.DeepEqual(sa.Values, pa.Values) {
			t.Fatalf("answers diverge for %q: %v vs %v", q.Text, sa.Values, pa.Values)
		}
	}
}

// TestSnapshotIsolation verifies the read-path/write-path split: a snapshot
// captured before an ingest batch must be completely unaffected by the
// commit, and the new snapshot must expose the batch atomically.
func TestSnapshotIsolation(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	gBefore, sgBefore, ixBefore := s.Graph(), s.SG(), s.Index()
	triBefore := gBefore.NumTriples()
	statsBefore := sgBefore.ComputeStats()
	ixLenBefore := ixBefore.Len()

	if _, err := s.Ingest([]adapter.RawFile{{
		Domain: "flights", Source: "radar", Name: "feed", Format: "csv",
		Content: []byte("flight,status\nCA981,Delayed\nKL602,Boarding\n"),
	}}); err != nil {
		t.Fatal(err)
	}

	if gBefore.NumTriples() != triBefore {
		t.Fatal("published graph snapshot was mutated by a later ingest")
	}
	if sgBefore.ComputeStats() != statsBefore {
		t.Fatal("published SG snapshot was mutated by a later ingest")
	}
	if ixBefore.Len() != ixLenBefore {
		t.Fatal("published index snapshot was mutated by a later ingest")
	}
	if s.Graph() == gBefore || s.Graph().NumTriples() <= triBefore {
		t.Fatal("new snapshot not published")
	}
	if s.SG().ComputeStats() == statsBefore {
		t.Fatal("SG not updated for the new batch")
	}
}

// TestIngestFailurePublishesNothing checks batch atomicity: when one file of
// a batch fails, no partial state may become visible.
func TestIngestFailurePublishesNothing(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	gBefore := s.Graph()
	ixLen := s.Index().Len()
	_, err := s.Ingest([]adapter.RawFile{
		{Domain: "flights", Source: "ok", Name: "good", Format: "csv",
			Content: []byte("flight,status\nZZ111,On time\n")},
		{Domain: "flights", Source: "bad", Name: "broken", Format: "json",
			Content: []byte("{not json")},
	})
	if err == nil {
		t.Fatal("broken batch must fail")
	}
	if s.Graph() != gBefore || s.Index().Len() != ixLen {
		t.Fatal("failed batch leaked partial state into the serving snapshot")
	}
}

// memberFacts lists a homologous node's member triples as "ID source", in
// member order: the members and sources a node is compared on.
func memberFacts(sg *linegraph.SG, n *linegraph.HomologousNode) []string {
	var out []string
	for _, t := range sg.MemberTriples(n) {
		out = append(out, t.ID()+" "+t.Source)
	}
	return out
}

// keyWalk is the line graph's test oracle, taken without the line graph or
// the graph's key counts: one walk over every key posting, counting the keys
// with one live triple and with two or more, and listing the isolated points'
// IDs, sorted, and each homologous key's members as "ID source", in ID order.
type keyWalk struct {
	stats    linegraph.Stats
	isolated []string
	nodes    map[string][]string
}

func walkKeys(g *kg.Graph) keyWalk {
	w := keyWalk{nodes: map[string][]string{}}
	g.ForEachKeyPosting(func(subjH, predH int32, posting []int32) {
		switch {
		case len(posting) == 1:
			w.stats.Isolated++
			w.isolated = append(w.isolated, kg.TripleID(posting[0]))
		case len(posting) >= 2:
			w.stats.HomologousNodes++
			var members []string
			for _, h := range posting {
				members = append(members, kg.TripleID(h)+" "+g.TripleAt(h).Source)
			}
			slices.Sort(members)
			w.nodes[g.EntityAt(subjH).ID+"\x00"+g.PredicateAt(predH)] = members
		}
	})
	slices.Sort(w.isolated)
	return w
}

// requireSGMatchesWalk checks a published SG against the key walk of its
// graph: equal statistics, equal isolated points and, node by node, equal
// members and sources.
func requireSGMatchesWalk(t *testing.T, label string, sg *linegraph.SG) {
	t.Helper()
	want := walkKeys(sg.Graph())
	if got := sg.ComputeStats(); got != want.stats {
		t.Fatalf("%s: stats %+v, key walk %+v", label, got, want.stats)
	}
	if got := sg.IsolatedIDs(); !slices.Equal(got, want.isolated) {
		t.Fatalf("%s: isolated points %v, key walk %v", label, got, want.isolated)
	}
	if sg.NumNodes() != len(want.nodes) {
		t.Fatalf("%s: %d nodes, key walk %d", label, sg.NumNodes(), len(want.nodes))
	}
	for key, members := range want.nodes {
		gn, ok := sg.Node(key)
		if !ok {
			t.Fatalf("%s: node %q missing", label, key)
		}
		if got := memberFacts(sg, gn); gn.Num != len(members) || !slices.Equal(got, members) {
			t.Fatalf("%s: node %q = %v, key walk %v", label, key, got, members)
		}
	}
}

// TestIncrementalSGMatchesFullRebuild checks every site that publishes the
// line graph against the key walk of the published graph: the committer
// after each of several commits, a replica applying each logged record, and
// a crash-reopened durable system, whose recovery replays the WAL tail past
// its checkpoint in place. Each batch grows existing groups and turns the
// previous batch's isolated claim into a homologous group.
func TestIncrementalSGMatchesFullRebuild(t *testing.T) {
	const batches, checkpointed = 6, 2
	cfg := Config{LLM: llm.Config{Seed: 1}, CheckpointRecords: 1 << 30, CheckpointBytes: 1 << 40}
	fs := wal.NewMemFS()
	primary, _ := openDurable(t, fs, cfg)
	replica, tail := seededReplica(t, primary)
	for k := 0; k < batches; k++ {
		_, err := primary.Ingest([]adapter.RawFile{{
			Domain: "flights", Source: fmt.Sprintf("src-%d", k), Name: "feed", Format: "csv",
			Content: []byte(fmt.Sprintf("flight,status,gate\nCA981,Delayed,B%d\nMU%d88,On time,C1\nMU%d88,Boarding,C2\n", k, k, k-1)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("commit %d", k)
		requireSGMatchesWalk(t, "primary after "+label, primary.SG())
		catchUp(t, primary, replica, tail)
		requireSGMatchesWalk(t, "replica after "+label, replica.SG())
		if k+1 == checkpointed {
			if err := primary.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	reopened, info := openDurable(t, fs.Crash(nil), cfg)
	if info.CheckpointLSN != checkpointed || info.RecordsReplayed != batches-checkpointed {
		t.Fatalf("recovery from checkpoint %d replayed %d records, want %d + %d",
			info.CheckpointLSN, info.RecordsReplayed, checkpointed, batches-checkpointed)
	}
	requireSGMatchesWalk(t, "recovered", reopened.SG())
	if !bytes.Equal(snapBytes(reopened), snapBytes(primary)) {
		t.Fatal("recovered snapshot differs from the primary's")
	}
}

// TestConcurrentIngestSerialised checks that racing Ingest calls are applied
// as whole batches: every file lands exactly once.
func TestConcurrentIngestSerialised(t *testing.T) {
	s := NewSystem(Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	const batches = 6
	var wg sync.WaitGroup
	wg.Add(batches)
	for b := 0; b < batches; b++ {
		go func(b int) {
			defer wg.Done()
			_, err := s.Ingest([]adapter.RawFile{{
				Domain: "fleet", Source: fmt.Sprintf("src-%d", b), Name: "feed", Format: "csv",
				Content: []byte(fmt.Sprintf("flight,status\nQF%d01,On time\n", b)),
			}})
			if err != nil {
				t.Errorf("ingest %d: %v", b, err)
			}
		}(b)
	}
	wg.Wait()
	// Each batch contributes 1 entity (the flight; "On time" is a literal)
	// and 1 triple.
	if got := s.Graph().NumTriples(); got != batches {
		t.Fatalf("triples = %d, want %d (lost or duplicated batches)", got, batches)
	}
	for b := 0; b < batches; b++ {
		ans := s.Query(fmt.Sprintf("What is the status of QF%d01?", b))
		if !ans.Found {
			t.Fatalf("batch %d invisible after concurrent ingest", b)
		}
	}
}
