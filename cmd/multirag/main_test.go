package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multirag"
)

// TestLoadRejectsEmptyIngestElement: a stray comma in -ingest names the flag
// and the list instead of failing as a read of the empty path, and nothing
// is ingested; the list without it loads.
func TestLoadRejectsEmptyIngestElement(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "schedule.csv")
	if err := os.WriteFile(csv, []byte("flight,status\nCA981,Delayed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, list := range []string{csv + ",", "," + csv, csv + ", ," + csv} {
		sys := multirag.Open(multirag.Config{Seed: 1})
		defer sys.Close()
		err := load(sys, false, list, "flights")
		if err == nil || !strings.Contains(err.Error(), "-ingest") || strings.Contains(err.Error(), "open :") {
			t.Fatalf("load(%q) = %v, want an error naming -ingest", list, err)
		}
		if st := sys.Stats(); st.Triples != 0 {
			t.Fatalf("load(%q) ingested %d triples before failing", list, st.Triples)
		}
	}
	sys := multirag.Open(multirag.Config{Seed: 1})
	defer sys.Close()
	if err := load(sys, false, csv, "flights"); err != nil {
		t.Fatalf("load(%q): %v", csv, err)
	}
	if st := sys.Stats(); st.Triples == 0 {
		t.Fatal("the clean list ingested nothing")
	}
}
