package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multirag"
	"multirag/internal/serve"
)

// runServeCmd is the `multirag serve` subcommand: the production front door.
// It ingests a corpus, then serves HTTP/JSON with one line of requests
// waiting for an execution slot, served in arrival order with a bounded share
// per SLO class, and per-class latency metrics. Ingest traffic is shed with
// 429 while the group committer's admission window is saturated, so overload
// backs up to clients instead of queueing without bound inside the server.
//
// With -data-dir the corpus is durable: acknowledged ingests are write-ahead
// logged and checkpointed under the directory, and a restart resumes exactly
// where the previous process stopped. SIGINT/SIGTERM trigger a graceful
// shutdown either way: new requests are rejected with 503 + Retry-After,
// in-flight requests finish (bounded by -shutdown-timeout), then the WAL is
// flushed into a final checkpoint before the process exits.
func runServeCmd(args []string) {
	fs := flag.NewFlagSet("multirag serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: multirag serve [flags]

Serve the ingested corpus over HTTP:

  POST /v1/query        {"query": "...", "class": "interactive"}
  POST /v1/query/batch  {"queries": [...], "class": "batch"}
  POST /v1/ingest       {"files": [{"domain","source","name","format","content"}, ...]}
  GET  /v1/stats        corpus statistics
  GET  /v1/metrics      per-class p50/p95/p99 latency, queue depths,
                        deadline/cancel/degraded counters, durability state
  GET  /healthz         {"status": "ok"|"degraded"|"draining", "reason": ...}

SLO classes: interactive, batch, ingest. A query that finds a free
execution slot runs at once; one that does not waits in one line shared by
the classes until a finishing request hands it a slot, in arrival order
whatever its class, and a /v1/query/batch runs whole under one slot. There
are GOMAXPROCS slots. Excess load is rejected with 429 (a class with
-queue-cap queries already waiting, or the ingest pipeline at capacity) or
503 (queue timeout); every shed response carries a Retry-After hint.

Requests run under end-to-end deadlines (-deadline, tightened per request
with "deadline_ms"): the budget starts at admission, so queue wait spends it
too, and client disconnects cancel evaluation mid-flight. A request whose
budget expires mid-evaluation returns 200 with a Degraded partial answer
(-degrade, the default) or fails with 504 (-degrade=false).

With -data-dir, acknowledged ingests are write-ahead logged and checkpointed
so a restart resumes the exact corpus. SIGINT/SIGTERM drain gracefully:
in-flight requests finish, the WAL is flushed into a final checkpoint, then
the process exits. Inspect or repair a directory with "multirag recover".

With -replicas N (needs -data-dir), reads are served from N in-process
replicas that read and replay the primary's write-ahead log, byte-identical
to it at every position and checked by snapshot digest every 16 records.
-route picks the policy (round-robin or primary-only). A replica that is
fenced, resyncing or more than 256 commit groups behind the primary is
skipped until it is live and caught up; with none eligible, reads go to the
primary. Replica state, lag and resync counters appear under "router" in
/v1/metrics.

Flags:
`)
		fs.PrintDefaults()
	}
	var (
		addr         = fs.String("addr", ":8473", "listen address")
		dataDir      = fs.String("data-dir", "", "durable state directory (WAL + checkpoints); empty = in-memory only")
		shutdownWait = fs.Duration("shutdown-timeout", 10*time.Second, "maximum wait for in-flight requests on SIGINT/SIGTERM")
		demo         = fs.Bool("demo", false, "load the built-in CA981 case-study corpus")
		ingest       = fs.String("ingest", "", "comma-separated data files to ingest before serving")
		domain       = fs.String("domain", "data", "domain label for ingested files")
		seed         = fs.Uint64("seed", 1, "simulated model seed")
		workers      = fs.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		queueCap     = fs.Int("queue-cap", 256, "bound on each SLO class's queries waiting for a slot")
		queueTimeout = fs.Duration("queue-timeout", 5*time.Second, "maximum queue wait before a request fails with 503")
		deadline     = fs.Duration("deadline", 0, "end-to-end deadline per query-class request, counted from admission (0 = none; requests may tighten it with deadline_ms)")
		degrade      = fs.Bool("degrade", true, "deliver partial answers as 200 + degraded when a request's deadline expires mid-evaluation (false = fail with 504)")
		replicas     = fs.Int("replicas", 0, "read replicas that replay the primary's write-ahead log; needs -data-dir (0 = serve reads from the primary)")
		route        = fs.String("route", serve.RouteRoundRobin, "replica read-routing policy: round-robin or primary-only")
	)
	if err := fs.Parse(args); err != nil {
		fatal("serve: %v", err)
	}

	sysCfg := multirag.Config{
		Seed:    *seed,
		Workers: *workers,
	}
	var sys *multirag.System
	var recovery *multirag.RecoveryInfo
	if *dataDir != "" {
		var info multirag.RecoveryInfo
		var err error
		sys, info, err = multirag.OpenDurable(*dataDir, sysCfg)
		if err != nil {
			fatal("serve: open %s: %v", *dataDir, err)
		}
		recovery = &info
		fmt.Printf("multirag serve: recovered %s (checkpoint LSN %d, %d WAL records replayed%s)\n",
			*dataDir, info.CheckpointLSN, info.RecordsReplayed,
			map[bool]string{true: ", torn tail truncated"}[info.Truncated])
	} else {
		sys = multirag.Open(sysCfg)
	}
	if *demo {
		if err := sys.IngestFiles(demoFiles()...); err != nil {
			fatal("serve: demo ingest: %v", err)
		}
	}
	if *ingest != "" {
		files, err := readFiles(*ingest, *domain)
		if err != nil {
			fatal("serve: %v", err)
		}
		if err := sys.IngestFiles(files...); err != nil {
			fatal("serve: ingest: %v", err)
		}
	}

	// The replica set (if any) outlives the server but not the system: it is
	// detached after the server stops routing to it and before the primary's
	// final checkpoint.
	var set *multirag.ReplicaSet
	if *replicas > 0 {
		var err error
		set, err = multirag.NewReplicaSet(sys, multirag.ReplicaSetConfig{Replicas: *replicas})
		if err != nil {
			fatal("serve: replicas: %v", err)
		}
		fmt.Printf("multirag serve: %d read replicas attached (route %s)\n", *replicas, *route)
	}
	closeSet := func() {
		if set != nil {
			set.Close()
		}
	}

	srv, err := serve.New(serve.Config{
		System:       sys,
		Classes:      serveClasses(*queueCap, *deadline, *degrade),
		QueueTimeout: *queueTimeout,
		Recovery:     recovery,
		Replicas:     set,
		Route:        *route,
	})
	if err != nil {
		closeSet()
		fatal("serve: %v", err)
	}

	st := sys.Stats()
	fmt.Printf("multirag serve: listening on %s (%d triples, %d chunks indexed)\n",
		*addr, st.Triples, st.Chunks)

	// Graceful shutdown: SIGINT/SIGTERM → reject new work (503 + Retry-After),
	// let in-flight handlers finish within the deadline, wait for the slots,
	// then flush the WAL into a final checkpoint. A restart resumes exactly
	// where this process stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := newHTTPServer(*addr, srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		srv.Close()
		closeSet()
		sys.Close()
		fatal("serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Println("multirag serve: draining (new requests get 503 + Retry-After)")
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "multirag serve: shutdown: %v\n", err)
	}
	srv.Close()
	closeSet()
	if err := sys.Close(); err != nil {
		fatal("serve: close durable state: %v", err)
	}
	fmt.Println("multirag serve: shutdown complete (state flushed)")
}

// readHeaderTimeout bounds how long a connection may take to send its request
// headers, and readTimeout how long it may take to send the whole request,
// body included, so a client that opens connections and trickles bytes cannot
// hold server goroutines indefinitely. Bodies are bounded by size too, in the
// serve package: readTimeout leaves a 64 MiB ingest body about 1 MB/s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
)

// newHTTPServer is the front door's HTTP server: h on addr, with both read
// bounds set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

// serveClasses is the stock SLO layout with the CLI queue cap applied to
// every class and the deadline and degradation knobs to the query classes.
// The ingest class's load shedding comes from the group committer's own
// bounded admission window, surfaced as 429 by the ingest handler.
func serveClasses(queueCap int, deadline time.Duration, degrade bool) []serve.Class {
	classes := serve.DefaultClasses()
	for i := range classes {
		classes[i].QueueCap = queueCap
		if classes[i].Name != serve.IngestClass {
			classes[i].Deadline = deadline
			classes[i].Degrade = degrade
		}
	}
	return classes
}
