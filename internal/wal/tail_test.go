package wal

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// appendN appends records first..first+n-1 ("record-<lsn>") to l.
func appendN(t *testing.T, l *Log, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		if _, err := l.Append(fmt.Appendf(nil, "record-%d", i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func openEmptyLog(t *testing.T, fsys FS, dir string) *Log {
	t.Helper()
	if err := fsys.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(fsys, dir, &ScanResult{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// readTo reads records with the cursor until it reaches committed, checking
// each against its LSN.
func readTo(t *testing.T, tail *Tail, committed uint64) {
	t.Helper()
	for tail.LSN() < committed {
		lsn := tail.LSN()
		p, ok, err := tail.Next(committed)
		if err != nil || !ok {
			t.Fatalf("Next at LSN %d: ok=%v err=%v", lsn, ok, err)
		}
		if want := fmt.Sprintf("record-%d", lsn); string(p) != want {
			t.Fatalf("LSN %d read %q, want %q", lsn, p, want)
		}
	}
	if p, ok, err := tail.Next(committed); ok || err != nil || p != nil {
		t.Fatalf("Next at the committed LSN %d = %q, %v, %v; want nothing", committed, p, ok, err)
	}
}

// flipBit corrupts one byte of a committed frame in place.
func flipBit(t *testing.T, fsys FS, path string, off int) {
	t.Helper()
	if m, ok := fsys.(*MemFS); ok {
		if err := m.FlipBit(path, off); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 1 << 5
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTailFollowsRotations: a cursor opened on an empty log reads records as
// they are appended, crossing every rotation into the segment that starts at
// exactly its next LSN.
func TestTailFollowsRotations(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		l := openEmptyLog(t, fsys, dir)
		tail, err := OpenTail(fsys, dir, 0)
		if err != nil {
			t.Fatalf("OpenTail: %v", err)
		}
		readTo(t, tail, 0)
		appendN(t, l, 0, 3)
		readTo(t, tail, 2) // stops short of a committed record on request
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 3, 2)
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 5, 1)
		readTo(t, tail, l.NextLSN())
		appendN(t, l, 6, 2)
		readTo(t, tail, l.NextLSN())
	})
}

// TestTailSurvivesCheckpointPrune: with the cursor's position as the
// retention floor, pruning after a checkpoint may delete the segment the
// cursor has just finished, never one it still needs; the cursor moves on to
// the next segment and reads to the end.
func TestTailSurvivesCheckpointPrune(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		l := openEmptyLog(t, fsys, dir)
		appendN(t, l, 0, 3)
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 3, 2)
		tail, err := OpenTail(fsys, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		readTo(t, tail, 3) // the whole first segment, cursor still in it
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 5, 2)
		if err := WriteCheckpoint(fsys, dir, 5, []byte("state")); err != nil {
			t.Fatal(err)
		}
		if err := RemoveBelow(fsys, dir, 5, tail.LSN()); err != nil {
			t.Fatal(err)
		}
		names, err := fsys.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if n == segName(0) {
				t.Fatalf("the finished segment below the floor survived: %v", names)
			}
		}
		readTo(t, tail, l.NextLSN())
	})
}

// TestTailOpensMidSegment: opening at an LSN inside a segment steps over the
// frames before it by their length headers alone — a corrupt payload there is
// never read — and reads on from exactly that LSN.
func TestTailOpensMidSegment(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		l := openEmptyLog(t, fsys, dir)
		appendN(t, l, 0, 2)
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 2, 4)
		flipBit(t, fsys, join(dir, segName(2)), frameHeader) // record 2's payload
		tail, err := OpenTail(fsys, dir, 4)
		if err != nil {
			t.Fatalf("OpenTail past a corrupt payload: %v", err)
		}
		if tail.LSN() != 4 {
			t.Fatalf("opened at LSN %d, want 4", tail.LSN())
		}
		readTo(t, tail, l.NextLSN())
		if _, err := OpenTail(fsys, dir, 7); err == nil {
			t.Fatal("OpenTail beyond the log's records succeeded")
		}
	})
}

// TestTailCorruptCommittedFrameIsAnError: below the committed LSN the cursor
// reads only what was written and synced, so a flipped bit, or a record the
// log lacks, is an error — never a quiet end of the log.
func TestTailCorruptCommittedFrameIsAnError(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		l := openEmptyLog(t, fsys, dir)
		appendN(t, l, 0, 3)
		second := frameHeader + len("record-0")
		flipBit(t, fsys, join(dir, segName(0)), second+frameHeader+3)
		tail, err := OpenTail(fsys, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		readTo(t, tail, 1)
		if p, ok, err := tail.Next(3); err == nil || ok {
			t.Fatalf("Next over a flipped bit = %q, %v, %v; want an error", p, ok, err)
		}

		tail, err = OpenTail(fsys, dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		readTo(t, tail, 3)
		if _, _, err := tail.Next(4); err == nil {
			t.Fatal("Next of a record the log lacks succeeded")
		}
	})
}

// TestTailReusesOneBuffer: steady records are read into one buffer, and a
// record larger than scratchKeep is not kept once the next one is read.
func TestTailReusesOneBuffer(t *testing.T) {
	m := NewMemFS()
	l := openEmptyLog(t, m, "wal")
	big := bytes.Repeat([]byte{7}, 2*scratchKeep)
	for _, p := range [][]byte{[]byte("a"), []byte("b"), big, []byte("c")} {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := OpenTail(m, "wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := tail.Next(4)
	b, _, _ := tail.Next(4)
	if &a[0] != &b[0] {
		t.Fatal("second record was read into a new buffer")
	}
	if p, _, err := tail.Next(4); err != nil || !bytes.Equal(p, big) {
		t.Fatalf("bulk record: %d bytes, %v", len(p), err)
	}
	if p, _, err := tail.Next(4); err != nil || string(p) != "c" || cap(tail.buf) > scratchKeep {
		t.Fatalf("after the bulk record: %q, %v, buffer cap %d", p, err, cap(tail.buf))
	}
}

// openCounter is an FS that counts the readers it opens.
type openCounter struct {
	FS
	opens int
}

func (c *openCounter) OpenReader(name string) (Reader, error) {
	c.opens++
	return c.FS.OpenReader(name)
}

// TestTailOpensEachSegmentOnce: the cursor holds the segment it reads open,
// so reading a log of three segments record by record opens each segment
// once, however many reads a record costs, and sees records appended to it
// after it was opened. After Close the next read opens the segment again.
func TestTailOpensEachSegmentOnce(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		l := openEmptyLog(t, fsys, dir)
		for i := 0; i < 3; i++ {
			if i > 0 {
				if err := l.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
			appendN(t, l, 4*i, 4)
		}
		counter := &openCounter{FS: fsys}
		tail, err := OpenTail(counter, dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		readTo(t, tail, l.NextLSN())
		appendN(t, l, 12, 2)
		readTo(t, tail, l.NextLSN())
		if counter.opens != 3 {
			t.Fatalf("reading three segments opened %d readers", counter.opens)
		}
		if err := tail.Close(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 14, 1)
		readTo(t, tail, l.NextLSN())
		if counter.opens != 4 {
			t.Fatalf("a read after Close opened %d readers in all, want 4", counter.opens)
		}
		tail.Close()
	})
}
