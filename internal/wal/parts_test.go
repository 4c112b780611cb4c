package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// writeSizes is an FS whose appended files record the size of every Write.
type writeSizes struct {
	*MemFS
	sizes []int
}

func (w *writeSizes) OpenAppend(name string) (File, error) {
	f, err := w.MemFS.OpenAppend(name)
	return sizedFile{f, w}, err
}

func (w *writeSizes) Create(name string) (File, error) {
	f, err := w.MemFS.Create(name)
	return sizedFile{f, w}, err
}

type sizedFile struct {
	File
	w *writeSizes
}

func (f sizedFile) Write(p []byte) (int, error) {
	f.w.sizes = append(f.w.sizes, len(p))
	return f.File.Write(p)
}

// TestAppendPartsWritesOneFrame: a record appended as parts — none, empty
// ones, one spanning several write buffers, many small ones — lands on disk
// byte for byte as the same payload appended whole, reaches the segment in
// writes of at most appendBuffer bytes, and scans back as one record.
func TestAppendPartsWritesOneFrame(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*appendBuffer/16+5)
	var small [][]byte
	for i := range 2000 {
		small = append(small, fmt.Appendf(nil, "part-%d;", i))
	}
	records := [][][]byte{
		nil,
		{{}, []byte("head"), {}, []byte("tail")},
		{[]byte("x"), big, []byte("y")},
		small,
		{big[:appendBuffer-frameHeader]}, // the frame fills the buffer exactly
	}
	whole, parted := &writeSizes{MemFS: NewMemFS()}, &writeSizes{MemFS: NewMemFS()}
	lw, err := OpenLog(whole, "wal", &ScanResult{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := OpenLog(parted, "wal", &ScanResult{})
	if err != nil {
		t.Fatal(err)
	}
	for i, parts := range records {
		if _, err := lw.Append(bytes.Join(parts, nil)); err != nil {
			t.Fatal(err)
		}
		if lsn, err := lp.AppendParts(parts); err != nil || lsn != uint64(i) {
			t.Fatalf("record %d: AppendParts = %d, %v", i, lsn, err)
		}
	}
	seg := join("wal", segName(0))
	a, _ := whole.ReadFile(seg)
	b, _ := parted.ReadFile(seg)
	if !bytes.Equal(a, b) {
		t.Fatal("a record appended as parts differs on disk from the same payload appended whole")
	}
	for _, n := range parted.sizes {
		if n > appendBuffer {
			t.Fatalf("a %d-byte write; the log streams through a %d-byte buffer", n, appendBuffer)
		}
	}
	sr := scanAll(t, parted, "wal", 0)
	if sr.Truncated || len(sr.Records) != len(records) {
		t.Fatalf("scan: %d records, truncated %v", len(sr.Records), sr.Truncated)
	}
	for i, parts := range records {
		if !bytes.Equal(sr.Records[i], bytes.Join(parts, nil)) {
			t.Fatalf("record %d reads back differently", i)
		}
	}
}

// TestAppendRefusesOversizedRecord: a payload over MaxRecordSize, which no
// scan would read back, is refused before anything is written, and the log
// does not latch: the next append succeeds and a reopen sees it. The same
// 1 MiB slice passed 1,025 times is the oversized payload, so no 1 GiB
// buffer is needed.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		l, err := OpenLog(fsys, dir, &ScanResult{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("before")); err != nil {
			t.Fatal(err)
		}
		mib := make([]byte, 1<<20)
		parts := make([][]byte, MaxRecordSize>>20+1)
		for i := range parts {
			parts[i] = mib
		}
		size := l.ActiveSize()
		if _, err := l.AppendParts(parts); !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("a %d-part record of 1 MiB each: %v, want ErrRecordTooLarge", len(parts), err)
		}
		if l.NextLSN() != 1 || l.ActiveSize() != size || l.Failed() != nil {
			t.Fatalf("the refused append moved the log: NextLSN %d, size %d -> %d, latched %v", l.NextLSN(), size, l.ActiveSize(), l.Failed())
		}
		if lsn, err := l.Append([]byte("after")); err != nil || lsn != 1 {
			t.Fatalf("the next append: %d, %v", lsn, err)
		}
		l.Close()
		sr := scanAll(t, fsys, dir, 0)
		if sr.Truncated || len(sr.Records) != 2 || string(sr.Records[1]) != "after" {
			t.Fatalf("reopen scan: %d records, truncated %v", len(sr.Records), sr.Truncated)
		}
		l2, err := OpenLog(fsys, dir, sr)
		if err != nil || l2.NextLSN() != 2 {
			t.Fatalf("reopen: %v", err)
		}
		l2.Close()
	})
}
