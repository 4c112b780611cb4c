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
//
// The serving path under load — HTTP front door, ingest pipeline, WAL and
// replicas — is measured end to end by `go run ./benchmark`.
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
			if err := runRecoverCmd(os.Args[2:]); err != nil {
				fatal("recover: %v", err)
			}
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
		workers = flag.Int("workers", 0, "worker pool size: ingestion and query fan-out (0 = GOMAXPROCS)")
		k       = flag.Int("k", 5, "documents to retrieve with -retrieve")
		retr    = flag.String("retrieve", "", "retrieve supporting documents for a query")
	)
	flag.Parse()

	sys := multirag.Open(multirag.Config{Seed: *seed, Workers: *workers})

	if err := load(sys, *demo, *ingest, *domain); err != nil {
		fatal("%v", err)
	}
	if !*demo && *ingest == "" {
		fmt.Fprintln(os.Stderr, "multirag: nothing ingested; use -demo or -ingest (see -h)")
		os.Exit(2)
	}

	if *stats {
		st := sys.Stats()
		fmt.Printf("entities:          %d\n", st.Entities)
		fmt.Printf("triples:           %d\n", st.Triples)
		fmt.Printf("homologous nodes:  %d\n", st.HomologousNodes)
		fmt.Printf("isolated claims:   %d\n", st.IsolatedClaims)
		fmt.Printf("chunks indexed:    %d\n", st.Chunks)
		fmt.Printf("extraction cost:   %v (modelled)\n", st.BuildTime)
	}

	if *retr != "" {
		for i, doc := range sys.Retrieve(*retr, *k) {
			fmt.Printf("%d. %s\n", i+1, doc)
		}
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

// load ingests what -demo and -ingest name into sys: the case-study corpus,
// then the listed files.
func load(sys *multirag.System, demo bool, ingest, domain string) error {
	if demo {
		if err := sys.IngestFiles(demoFiles()...); err != nil {
			return fmt.Errorf("demo ingest: %v", err)
		}
	}
	if ingest == "" {
		return nil
	}
	files, err := readFiles(ingest, domain)
	if err != nil {
		return err
	}
	if err := sys.IngestFiles(files...); err != nil {
		return fmt.Errorf("ingest: %v", err)
	}
	return nil
}

// readFiles loads a comma-separated path list as ingest files, inferring
// formats from extensions. An empty element is an error, not a read of "".
func readFiles(paths, domain string) ([]multirag.File, error) {
	var files []multirag.File
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			return nil, fmt.Errorf("-ingest %q: empty file name in the list", paths)
		}
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
