package main

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"multirag"
	"multirag/internal/wal"
)

// format1Dir is a data directory in on-disk format 1 (dense vectors): a
// checkpoint plus a tail of WAL records.
const format1Dir = "../../internal/core/testdata/format1"

// format2Dir is a data directory in on-disk format 2 (plain string columns):
// a checkpoint plus one WAL record.
const format2Dir = "../../internal/core/testdata/format2"

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

// TestRecoverRejectsFormat1: `multirag recover -data-dir` on a format-1
// directory fails with multirag.ErrUnsupportedFormat, without writing the
// fresh checkpoint it would otherwise write, and leaves every file byte for
// byte as it was.
func TestRecoverRejectsFormat1(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(format1Dir)); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if err := runRecoverCmd([]string{"-data-dir", dir}); !errors.Is(err, multirag.ErrUnsupportedFormat) {
		t.Fatalf("recover: %v, want ErrUnsupportedFormat", err)
	}
	if !maps.Equal(dirFiles(t, dir), before) {
		t.Fatal("a rejected recover changed the directory")
	}
}

// TestRecoverMigratesFormat2: `multirag recover -data-dir` on a format-2
// directory replays it and writes a format-3 checkpoint as the newest one.
// The format-2 checkpoint and its segment stay as the fallback the next
// checkpoint prunes; this release still reads them.
func TestRecoverMigratesFormat2(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(format2Dir)); err != nil {
		t.Fatal(err)
	}
	if err := runRecoverCmd([]string{"-data-dir", dir}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	body, lsn, err := wal.LoadCheckpoint(wal.OSFS{}, dir)
	if err != nil || body == nil {
		t.Fatalf("no checkpoint after recover: %v", err)
	}
	if lsn != 3 || body[0] != 3 {
		t.Fatalf("recover left a version-%d checkpoint at LSN %d, want version 3 at LSN 3", body[0], lsn)
	}
	if err := runRecoverCmd([]string{"-data-dir", dir, "-dry-run"}); err != nil {
		t.Fatalf("recover of the migrated directory: %v", err)
	}
}
