package main

import (
	"errors"
	"io/fs"
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
// a checkpoint plus one WAL record, with the files it ingested in src.
const format2Dir = "../../internal/core/testdata/format2"

// format3Dir is the same directory in on-disk format 3 (stored vectors and
// line graph).
const format3Dir = "../../internal/core/testdata/format3"

// dirFiles returns every file under dir by its path with its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := fs.WalkDir(os.DirFS(dir), ".", func(name string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		files[name] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// requireRecoverRejects: `multirag recover -data-dir` on a copy of src fails
// with multirag.ErrUnsupportedFormat, without writing the fresh checkpoint it
// would otherwise write, and leaves every file byte for byte as it was.
func requireRecoverRejects(t *testing.T, src string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
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

// TestRecoverRejectsFormat1: a format-1 directory is rejected and left as it
// was (requireRecoverRejects).
func TestRecoverRejectsFormat1(t *testing.T) { requireRecoverRejects(t, format1Dir) }

// TestRecoverMigratesFormat2: format 2 no longer migrates in place. A format-2
// directory is rejected and left as it was (requireRecoverRejects); a release
// that still reads format 2 migrates it to format 3, which this one reads.
func TestRecoverMigratesFormat2(t *testing.T) { requireRecoverRejects(t, format2Dir) }

// TestRecoverMigratesFormat3: `multirag recover -data-dir` on a format-3
// directory replays it and writes a format-4 checkpoint as the newest one.
// The format-3 checkpoint and its segment stay as the fallback the next
// checkpoint prunes; this release still reads them.
func TestRecoverMigratesFormat3(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(format3Dir)); err != nil {
		t.Fatal(err)
	}
	if err := runRecoverCmd([]string{"-data-dir", dir}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	body, lsn, err := wal.LoadCheckpoint(wal.OSFS{}, dir)
	if err != nil || body == nil {
		t.Fatalf("no checkpoint after recover: %v", err)
	}
	if lsn != 3 || body[0] != 4 {
		t.Fatalf("recover left a version-%d checkpoint at LSN %d, want version 4 at LSN 3", body[0], lsn)
	}
	if err := runRecoverCmd([]string{"-data-dir", dir, "-dry-run"}); err != nil {
		t.Fatalf("recover of the migrated directory: %v", err)
	}
}
