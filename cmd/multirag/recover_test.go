package main

import (
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multirag"
)

// format1Dir is a data directory in on-disk format 1 (dense vectors): a
// checkpoint plus a tail of WAL records.
const format1Dir = "../../internal/core/testdata/format1"

// format2Dir is a data directory in on-disk format 2 (plain string columns):
// a checkpoint plus one WAL record, with the files it ingested in src.
const format2Dir = "../../internal/core/testdata/format2"

// format3Dir is the same directory in on-disk format 3 (stored vectors and
// line graph), and format3MigratedDir format3Dir after one recover by a
// release that still read format 3: a format-4 checkpoint is its newest.
const (
	format3Dir         = "../../internal/core/testdata/format3"
	format3MigratedDir = "../../internal/core/testdata/format3-migrated"
)

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
// directory is rejected and left as it was (requireRecoverRejects).
func TestRecoverMigratesFormat2(t *testing.T) { requireRecoverRejects(t, format2Dir) }

// TestRecoverMigratesFormat3: format 3 no longer migrates in place either. A
// format-3 directory is rejected and left as it was (requireRecoverRejects);
// the same directory recovered once by a release that still read format 3
// recovers here.
func TestRecoverMigratesFormat3(t *testing.T) {
	requireRecoverRejects(t, format3Dir)
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(format3MigratedDir)); err != nil {
		t.Fatal(err)
	}
	if err := runRecoverCmd([]string{"-data-dir", dir, "-dry-run"}); err != nil {
		t.Fatalf("recover of the migrated directory: %v", err)
	}
}

// TestRecoverNamesCorruptNewestCheckpoint: `multirag recover -dry-run` on a
// copy of format3MigratedDir whose newest checkpoint (the format-4 one at LSN
// 3) has one byte flipped fails naming that checkpoint as corrupt, rather than
// only sending the operator after a format-3 migration, and leaves every file
// byte for byte as it was.
func TestRecoverNamesCorruptNewestCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(format3MigratedDir)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint-0000000000000003.ckpt")
	b, err := os.ReadFile(path)
	if err == nil {
		b[len(b)/2] ^= 0xff
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	err = runRecoverCmd([]string{"-data-dir", dir, "-dry-run"})
	if err == nil || !strings.Contains(err.Error(), "checkpoint-0000000000000003.ckpt is corrupt or unreadable") {
		t.Fatalf("recover: %v, want the corrupt checkpoint at LSN 3 named", err)
	}
	if !maps.Equal(dirFiles(t, dir), before) {
		t.Fatal("a failed recover changed the directory")
	}
}
