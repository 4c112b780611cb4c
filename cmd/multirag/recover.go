package main

import (
	"errors"
	"flag"
	"fmt"

	"multirag"
)

// runRecoverCmd is the `multirag recover` subcommand: it opens a durable data
// directory, reports what recovery found (checkpoint position, WAL records
// replayed, torn-tail repair) and — unless -dry-run is set — folds the
// replayed log into a fresh checkpoint so the next open starts clean. It is
// the offline half of crash recovery: `multirag serve -data-dir` performs the
// same recovery on startup; this command exposes it for inspection and for
// compacting a directory without starting the server. A directory it cannot
// read — one in an on-disk format this release does not support — is
// reported as an error wrapping multirag.ErrUnsupportedFormat and left as it
// was found.
func runRecoverCmd(args []string) error {
	fs := flag.NewFlagSet("multirag recover", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: multirag recover -data-dir DIR [flags]

Open a durable data directory, replay the write-ahead log on top of the
newest checkpoint, print what was recovered, and checkpoint the result.

With -verify, also print the recovered state's replication position and
anti-entropy snapshot digest — the same fingerprint replicas are checked
against online. Two directories recovered with the same seed that print the
same position and digest hold byte-identical state.

Flags:
`)
		fs.PrintDefaults()
	}
	var (
		dataDir = fs.String("data-dir", "", "durable state directory (required)")
		dryRun  = fs.Bool("dry-run", false, "do not write a fresh checkpoint (opening still repairs a torn log tail)")
		seed    = fs.Uint64("seed", 1, "simulated model seed (must match the serving configuration)")
		verify  = fs.Bool("verify", false, "print the replication position and anti-entropy snapshot digest of the recovered state")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		fs.Usage()
		return errors.New("-data-dir is required")
	}

	sys, info, err := multirag.OpenDurable(*dataDir, multirag.Config{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint LSN:      %d\n", info.CheckpointLSN)
	fmt.Printf("WAL records replayed: %d\n", info.RecordsReplayed)
	fmt.Printf("torn tail truncated:  %v\n", info.Truncated)
	st := sys.Stats()
	fmt.Printf("entities:            %d\n", st.Entities)
	fmt.Printf("triples:             %d\n", st.Triples)
	fmt.Printf("homologous nodes:    %d\n", st.HomologousNodes)
	fmt.Printf("chunks indexed:      %d\n", st.Chunks)
	if *verify {
		fmt.Printf("replication LSN:     %d\n", sys.ReplicationLSN())
		fmt.Printf("snapshot digest:     %016x\n", sys.SnapshotDigest())
	}
	if *dryRun {
		return nil
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	fmt.Println("recovered state checkpointed; log compacted")
	return nil
}
