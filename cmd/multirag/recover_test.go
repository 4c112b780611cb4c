package main

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"multirag"
)

// format1Dir is a data directory in on-disk format 1 (dense vectors): a
// checkpoint plus a tail of WAL records.
const format1Dir = "../../internal/core/testdata/format1"

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
