// Command multirag is the interactive CLI for the MultiRAG library: it
// ingests data files into a knowledge-guided retrieval system, answers
// queries with multi-level confidence filtering, and serves the pipeline
// over HTTP with SLO-aware admission control.
//
// Usage:
//
//	multirag -ingest flights.csv,live.json,alerts.txt -domain flights -ask "What is the status of CA981?"
//	multirag -demo                 # built-in CA981 case-study corpus
//	multirag -demo -stats          # corpus statistics after ingestion
//	multirag -demo -ask "..." -explain
//	multirag serve -demo -addr :8473        # HTTP front door (see multirag serve -h)
//	multirag serve -data-dir /var/lib/multirag   # durable: WAL + checkpoints, resumes on restart
//	multirag recover -data-dir /var/lib/multirag # inspect/compact a durable directory offline
//	multirag -demo -load 2000               # closed-loop HTTP latency test (p50/p95/p99)
//	multirag -demo -load 2000 -qps 500      # open-loop at a target arrival rate
//	multirag -demo -load 2000 -deadline 50ms     # per-request end-to-end deadline (deadline_ms)
//	multirag -demo -load 2000 -target http://host:8473   # aim at a running server
//	multirag -ingest-load 500 -producers 4          # group-committed ingest load test over HTTP
//
// The -load and -ingest-load harnesses drive the real serving path: they
// start an in-process `multirag serve` front door (or aim at -target) and
// measure HTTP request latency, so the numbers include admission, batch
// formation and queueing — not just engine time.
//
// File formats are inferred from extensions: .csv, .json, .xml, .kg, .txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"multirag"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServeCmd(os.Args[2:])
			return
		case "recover":
			runRecoverCmd(os.Args[2:])
			return
		}
	}
	var (
		ingest  = flag.String("ingest", "", "comma-separated data files to ingest")
		domain  = flag.String("domain", "data", "domain label for ingested files")
		ask     = flag.String("ask", "", "question to answer")
		demo    = flag.Bool("demo", false, "load the built-in CA981 case-study corpus")
		stats   = flag.Bool("stats", false, "print corpus statistics")
		explain = flag.Bool("explain", false, "show trusted evidence and confidence detail")
		seed    = flag.Uint64("seed", 1, "simulated model seed")
		workers = flag.Int("workers", 0, "worker pool size: ingestion, query fan-out and -load concurrency (0 = GOMAXPROCS)")
		cache   = flag.Int("cache", 0, "answer cache size in entries (0 = disabled)")
		k       = flag.Int("k", 5, "documents to retrieve with -retrieve")
		retr    = flag.String("retrieve", "", "retrieve supporting documents for a query")
		load    = flag.Int("load", 0, "run an HTTP query load test of this many requests (0 = off)")
		qps     = flag.Float64("qps", 0, "offered arrival rate for -load (0 = closed loop at pool concurrency)")
		dline   = flag.Duration("deadline", 0, "per-request end-to-end deadline for -load, sent as deadline_ms (0 = none)")
		target  = flag.String("target", "", "base URL of a running `multirag serve` for -load/-ingest-load (default: in-process server)")
		policy  = flag.String("policy", "fcfs", "batch-formation policy of the in-process load server (fcfs|sjf|priority)")
		class   = flag.String("class", "interactive", "SLO class -load requests are tagged with")
		ingLoad = flag.Int("ingest-load", 0, "run an HTTP ingest load test of this many synthetic files (0 = off)")
		prods   = flag.Int("producers", 0, "concurrent producers for -ingest-load (0 = GOMAXPROCS)")
	)
	flag.Parse()

	sys := multirag.Open(multirag.Config{
		Seed:        *seed,
		Workers:     *workers,
		AnswerCache: *cache,
	})

	if *demo {
		if err := sys.IngestFiles(demoFiles()...); err != nil {
			fatal("demo ingest: %v", err)
		}
	}
	if *ingest != "" {
		files, err := readFiles(*ingest, *domain)
		if err != nil {
			fatal("%v", err)
		}
		if err := sys.IngestFiles(files...); err != nil {
			fatal("ingest: %v", err)
		}
	}
	if *ingLoad > 0 {
		runIngestLoad(sys, *ingLoad, *prods, *target)
	}
	if !*demo && *ingest == "" && *ingLoad == 0 && *target == "" {
		fmt.Fprintln(os.Stderr, "multirag: nothing ingested; use -demo, -ingest or -ingest-load (see -h)")
		os.Exit(2)
	}

	if *stats {
		st := sys.Stats()
		fmt.Printf("entities:          %d\n", st.Entities)
		fmt.Printf("triples:           %d\n", st.Triples)
		fmt.Printf("homologous nodes:  %d\n", st.HomologousNodes)
		fmt.Printf("isolated claims:   %d\n", st.IsolatedClaims)
		fmt.Printf("chunks indexed:    %d\n", st.Chunks)
		fmt.Printf("build time:        %v\n", st.BuildTime)
	}

	if *retr != "" {
		for i, doc := range sys.Retrieve(*retr, *k) {
			fmt.Printf("%d. %s\n", i+1, doc)
		}
	}

	if *load > 0 {
		queries := loadQueries(*load, *ask)
		runLoad(sys, queries, *qps, *workers, *target, *policy, *class, *dline)
	}

	if *ask != "" {
		ans := sys.Ask(*ask)
		if !ans.Found {
			fmt.Println("no trustworthy answer found")
			return
		}
		fmt.Printf("answer: %s\n", strings.Join(ans.Values, "; "))
		if *explain {
			fmt.Printf("intent: %s\n", ans.Intent)
			for _, gc := range ans.GraphConfidences {
				fmt.Printf("subgraph confidence C(G) = %.2f\n", gc)
			}
			for _, ev := range ans.Trusted {
				fmt.Printf("  trusted: %-24s source=%-16s confidence=%.2f\n",
					ev.Value, ev.Source, ev.Confidence)
			}
			fmt.Printf("  rejected claims: %d\n", ans.Rejected)
		}
	}
}

// readFiles loads a comma-separated path list as ingest files, inferring
// formats from extensions.
func readFiles(paths, domain string) ([]multirag.File, error) {
	var files []multirag.File
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		content, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read %s: %v", path, err)
		}
		format, err := formatOf(path)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(path)
		files = append(files, multirag.File{
			Domain:  domain,
			Source:  strings.TrimSuffix(base, filepath.Ext(base)),
			Name:    base,
			Format:  format,
			Content: content,
		})
	}
	return files, nil
}

func formatOf(path string) (string, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return "csv", nil
	case ".json":
		return "json", nil
	case ".xml":
		return "xml", nil
	case ".kg":
		return "kg", nil
	case ".txt", ".text", ".md":
		return "text", nil
	}
	return "", fmt.Errorf("multirag: cannot infer format of %q (use .csv/.json/.xml/.kg/.txt)", path)
}

// loadQueries builds the load-test workload: the -ask question when given,
// otherwise a mixed-intent sweep over the demo corpus (lookup, nested
// lookup, multi-hop-shaped, comparison, fallback).
func loadQueries(n int, ask string) []string {
	base := []string{ask}
	if ask == "" {
		base = []string{
			"What is the status of CA981?",
			"What is the delay reason of CA981?",
			"What is the departure time of CA981?",
			"Do CA981 and MU588 have the same status?",
			"Anything new about CA981 today",
		}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

func demoFiles() []multirag.File {
	return []multirag.File{
		{Domain: "flights", Source: "airport-api", Name: "schedule", Format: "csv",
			Content: []byte("flight,origin,destination,status,departure_time\nCA981,PEK,JFK,Delayed,2024-10-01 14:30\nMU588,PVG,LAX,On time,2024-10-01 15:10\n")},
		{Domain: "flights", Source: "airline-app", Name: "live", Format: "json",
			Content: []byte(`[{"flight":"CA981","status":"Delayed","delay_reason":"Typhoon"},{"flight":"MU588","status":"On time"}]`)},
		{Domain: "flights", Source: "weather-feed", Name: "alerts", Format: "text",
			Content: []byte("Typhoon Haikui impacts PEK departures after 14:00. The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.")},
		{Domain: "flights", Source: "forum-user", Name: "posts", Format: "text",
			Content: []byte("The status of CA981 is On time.")},
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "multirag: "+format+"\n", args...)
	os.Exit(1)
}
