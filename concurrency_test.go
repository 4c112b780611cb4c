package multirag

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQuickStartDocExample executes the doc.go quick start verbatim so the
// package documentation stays truthful.
func TestQuickStartDocExample(t *testing.T) {
	sys := Open(Config{})
	err := sys.IngestFiles(
		File{Domain: "flights", Source: "airline", Name: "live",
			Format: "json", Content: []byte(`[{"flight":"CA981","status":"Delayed"}]`)},
	)
	if err != nil {
		t.Fatalf("IngestFiles: %v", err)
	}
	ans := sys.Ask("What is the status of CA981?")
	if got := fmt.Sprint(ans.Values); got != "[Delayed]" {
		t.Fatalf("ans.Values printed %q, doc.go promises [Delayed]", got)
	}
}

// TestConcurrentAskDuringIngest is the serving-engine stress test: many Ask
// goroutines hammer the system while ingestion keeps committing batches.
// Run under -race, it proves the snapshot swap protocol publishes only
// consistent states. Every query observes either the pre- or post-batch view
// of its flight — never a torn one.
func TestConcurrentAskDuringIngest(t *testing.T) {
	const askers = 12
	const batches = 8

	sys := Open(Config{Seed: 3, Workers: 4})
	if err := sys.IngestFiles(flightFiles()...); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var asked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(askers)
	for a := 0; a < askers; a++ {
		go func(a int) {
			defer wg.Done()
			for !stop.Load() {
				// The seed corpus answer must hold throughout: later batches
				// add other flights, never new CA981 claims.
				ans := sys.Ask("What is the status of CA981?")
				if !ans.Found || len(ans.Values) != 1 || !strings.EqualFold(ans.Values[0], "delayed") {
					t.Errorf("asker %d saw inconsistent answer: %+v", a, ans.Values)
					return
				}
				if a%3 == 0 {
					sys.Retrieve("What is the status of CA981?", 3)
				}
				if a%3 == 1 {
					sys.Stats()
				}
				asked.Add(1)
			}
		}(a)
	}

	for b := 0; b < batches; b++ {
		err := sys.IngestFiles(File{
			Domain: "flights", Source: fmt.Sprintf("radar-%d", b), Name: "sweep", Format: "csv",
			Content: []byte(fmt.Sprintf("flight,status,gate\nXX%d42,On time,A%d\nYY%d77,Boarding,B%d\n", b, b, b, b)),
		})
		if err != nil {
			t.Fatalf("ingest batch %d: %v", b, err)
		}
		// Force genuine interleaving even on GOMAXPROCS=1: don't commit the
		// next batch until queries progressed against the current snapshot.
		floor := asked.Load() + int64(askers)
		for asked.Load() < floor && !t.Failed() {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()

	if asked.Load() == 0 {
		t.Fatal("no queries completed during ingestion")
	}
	// All batches must have landed and be queryable.
	for b := 0; b < batches; b++ {
		ans := sys.Ask(fmt.Sprintf("What is the status of XX%d42?", b))
		if !ans.Found {
			t.Fatalf("batch %d not visible after ingest", b)
		}
	}
}

// TestAskEachMatchesSerial checks the batch fan-out returns exactly what
// sequential Ask calls would, in input order.
func TestAskEachMatchesSerial(t *testing.T) {
	sys := Open(Config{Seed: 3, Workers: 8})
	if err := sys.IngestFiles(flightFiles()...); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"What is the status of CA981?",
		"What is the delay reason of CA981?",
		"What is the origin of CA981?",
		"What is the status of ZZ999?",
	}
	// Queries are read-only, so serial and concurrent evaluation see the
	// same snapshot; answers must agree except for history-sensitive
	// confidence annotations.
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = sys.Ask(q).Values
	}
	for round := 0; round < 5; round++ {
		got := sys.AskEach(nil, queries)
		if len(got) != len(queries) {
			t.Fatalf("got %d answers for %d queries", len(got), len(queries))
		}
		for i := range queries {
			if !reflect.DeepEqual(got[i].Values, want[i]) {
				t.Fatalf("round %d query %q: concurrent %v, serial %v", round, queries[i], got[i].Values, want[i])
			}
		}
	}
}

// TestConcurrentIngestFiles races whole IngestFiles batches; each must land
// atomically and the chunk accounting must not lose updates.
func TestConcurrentIngestFiles(t *testing.T) {
	sys := Open(Config{Seed: 1})
	const batches = 5
	var wg sync.WaitGroup
	wg.Add(batches)
	for b := 0; b < batches; b++ {
		go func(b int) {
			defer wg.Done()
			err := sys.IngestFiles(File{
				Domain: "fleet", Source: fmt.Sprintf("src-%d", b), Name: "feed", Format: "json",
				Content: []byte(fmt.Sprintf(`[{"flight":"AB%d10","status":"On time"}]`, b)),
			})
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
			}
		}(b)
	}
	wg.Wait()
	st := sys.Stats()
	if st.Triples != batches {
		t.Fatalf("triples = %d, want %d", st.Triples, batches)
	}
	if st.Chunks != batches {
		t.Fatalf("chunks = %d, want %d (snapshot index lost a batch)", st.Chunks, batches)
	}
}
