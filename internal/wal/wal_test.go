package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// The float32 field pair is a test-only codec extension: no record or
// checkpoint body stores one.

// F32 appends a float32 as its IEEE-754 bits, little-endian.
func (e *Encoder) F32(v float32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v))
	e.spill()
}

// F32 reads a little-endian float32.
func (d *Decoder) F32() float32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.fail("truncated float32")
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(d.b[d.off:]))
	d.off += 4
	return v
}

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Int(12345)
	e.Int32(-1)
	e.Int32(1 << 30)
	e.Bool(true)
	e.Bool(false)
	e.F64(3.5)
	e.String("")
	e.String("hello \x00 world")
	e.F32(-0.75)

	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Int(); got != 12345 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Int32(); got != -1 {
		t.Errorf("Int32 = %d", got)
	}
	if got := d.Int32(); got != 1<<30 {
		t.Errorf("Int32 = %d", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool = false")
	}
	if got := d.Bool(); got {
		t.Error("Bool = true")
	}
	if got := d.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "hello \x00 world" {
		t.Errorf("String = %q", got)
	}
	if got := d.F32(); got != -0.75 {
		t.Errorf("F32 = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestEncodedSizes: UvarintSize, StringSize and FrontSize are what Uvarint,
// String and Front append, at every varint width and for every shape of
// shared prefix.
func TestEncodedSizes(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<35 - 1, 1 << 35, math.MaxUint64} {
		var e Encoder
		e.Uvarint(v)
		if got := UvarintSize(v); got != e.Len() {
			t.Fatalf("UvarintSize(%d) = %d, Uvarint appends %d", v, got, e.Len())
		}
	}
	for _, n := range []int{0, 1, 127, 128, 20000} {
		s := strings.Repeat("x", n)
		var e Encoder
		e.String(s)
		if got := StringSize(s); got != e.Len() {
			t.Fatalf("StringSize of %d bytes = %d, String appends %d", n, got, e.Len())
		}
	}
	long := strings.Repeat("y", 200)
	for _, c := range [][2]string{
		{"", ""}, {"", "doc-1"}, {"doc-1", ""}, {"doc-1", "doc-1"}, {"doc-1", "doc-12"},
		{"doc-12", "doc-1"}, {"doc-1", "doc-2"}, {"abc", "xyz"}, {long, long + "z"}, {"x", long},
		{long + "a", long + "b"}, {"é", "è"}, // é and è share their first byte
	} {
		var e Encoder
		e.Front(c[0], c[1])
		if got := FrontSize(c[0], c[1]); got != e.Len() {
			t.Fatalf("FrontSize(%q, %q) = %d, Front appends %d", c[0], c[1], got, e.Len())
		}
	}
}

// TestFront: a front-coded column reads back row by row; an exact repeat
// returns the previous value itself and an equal value read again later
// shares its bytes; a prefix longer than the previous value is a latched
// error. FrontFresh reads the same values, each not repeated from the row
// before in a copy of its own.
func TestFront(t *testing.T) {
	rows := []string{"", "doc-1#c0", "doc-1#c1", "doc-1#c1", "doc-10#c0", "doc-1#c0", "feed", "", "feed"}
	var e, plain Encoder
	prev := ""
	for _, r := range rows {
		e.Front(prev, r)
		plain.String(r)
		prev = r
	}
	if e.Len() >= plain.Len() {
		t.Fatalf("front-coded column is %d bytes, plain %d", e.Len(), plain.Len())
	}
	for _, fresh := range []bool{false, true} {
		d := NewDecoder(e.Bytes())
		prev, first := "", map[string]string{}
		for i, want := range rows {
			read := d.Front
			if fresh {
				read = d.FrontFresh
			}
			got := read(prev)
			if got != want {
				t.Fatalf("fresh=%v row %d = %q, want %q", fresh, i, got, want)
			}
			if got == prev && unsafe.StringData(got) != unsafe.StringData(prev) {
				t.Fatalf("fresh=%v row %d: an exact repeat is a second copy", fresh, i)
			}
			f, ok := first[got]
			if shared := ok && unsafe.StringData(f) == unsafe.StringData(got); ok && got != prev && got != "" && shared == fresh {
				t.Fatalf("fresh=%v row %d: %q read again shares its bytes: %v", fresh, i, got, shared)
			}
			first[got] = got
			prev = got
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("fresh=%v: %v", fresh, err)
		}
	}

	var bad Encoder
	bad.Uvarint(4) // a 4-byte prefix of a 3-byte value
	bad.String("x")
	d := NewDecoder(bad.Bytes())
	if got := d.Front("abc"); got != "" || d.Err() == nil {
		t.Fatalf("prefix past the previous value: %q, %v", got, d.Err())
	}
	if d.Front("") != "" || d.String() != "" {
		t.Fatal("reads after the error returned data")
	}
}

func TestDecoderLatchesOnTruncation(t *testing.T) {
	var e Encoder
	e.String("abcdef")
	b := e.Bytes()
	for cut := 0; cut < len(b); cut++ {
		d := NewDecoder(b[:cut])
		_ = d.String()
		if d.Err() == nil {
			t.Fatalf("cut=%d: no error for truncated input", cut)
		}
		// Every later read must return zero without panicking.
		if v := d.Uvarint(); v != 0 {
			t.Fatalf("cut=%d: post-error Uvarint = %d", cut, v)
		}
	}
}

// TestDecoderFailLatches: a caller's own validation error poisons the decoder
// exactly like a malformed field — later reads return zero values, Finish
// reports it — and the first error latched is the one kept.
func TestDecoderFailLatches(t *testing.T) {
	var e Encoder
	e.F32(1.5)
	e.String("rest")
	first, second := errors.New("first"), errors.New("second")
	d := NewDecoder(e.Bytes())
	d.Fail(first)
	d.Fail(second)
	if d.F32() != 0 || d.String() != "" || d.Err() != first || d.Finish() != first {
		t.Fatalf("after Fail: err %v, Finish %v", d.Err(), d.Finish())
	}
	for cut := 0; cut < 4; cut++ {
		d := NewDecoder(e.Bytes()[:cut])
		if d.F32() != 0 || d.Err() == nil {
			t.Fatalf("float32 truncated to %d bytes decoded without error", cut)
		}
	}
}

func TestDecoderRejectsHugeLengths(t *testing.T) {
	var e Encoder
	e.Uvarint(1 << 62) // claims a ~4 exabyte string
	d := NewDecoder(e.Bytes())
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("huge length accepted")
	}
}

func TestFrameParse(t *testing.T) {
	var b []byte
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")}
	for _, p := range payloads {
		b = appendFrame(b, p)
	}
	got, clean, ok := parseFrames(b)
	if !ok || clean != len(b) || len(got) != 3 {
		t.Fatalf("parse = %d records, clean %d/%d, ok %v", len(got), clean, len(b), ok)
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d = %q", i, got[i])
		}
	}

	// Torn at every byte offset: the clean prefix is always a record
	// boundary and never includes the torn record.
	for cut := 0; cut < len(b); cut++ {
		got, clean, ok := parseFrames(b[:cut])
		if ok && cut != clean {
			t.Fatalf("cut=%d: reported clean with trailing bytes", cut)
		}
		if clean > cut {
			t.Fatalf("cut=%d: clean %d beyond input", cut, clean)
		}
		whole, _, _ := parseFrames(b[:clean])
		if len(whole) != len(got) {
			t.Fatalf("cut=%d: clean prefix holds %d records, parse returned %d", cut, len(whole), len(got))
		}
	}

	// A flipped bit anywhere invalidates the record it lands in and stops
	// the scan there (records before it survive).
	for off := 0; off < len(b); off++ {
		mut := append([]byte(nil), b...)
		mut[off] ^= 0x10
		got, clean, _ := parseFrames(mut)
		if clean > off {
			// The clean prefix may not extend past the corrupted byte...
			t.Fatalf("off=%d: clean prefix %d includes the flipped byte", off, clean)
		}
		reparsed, _, _ := parseFrames(b[:clean])
		for i := range got {
			if !bytes.Equal(got[i], reparsed[i]) {
				t.Fatalf("off=%d: surviving record %d differs", off, i)
			}
		}
	}
}

// logFSes runs a subtest against both FS implementations: the durability
// logic must behave identically over the real filesystem and the crash-
// simulating in-memory one.
func logFSes(t *testing.T, fn func(t *testing.T, fsys FS, dir string)) {
	t.Run("osfs", func(t *testing.T) { fn(t, OSFS{}, t.TempDir()) })
	t.Run("memfs", func(t *testing.T) {
		m := NewMemFS()
		dir := filepath.Join("data", "wal")
		fn(t, m, dir)
	})
}

func scanAll(t *testing.T, fsys FS, dir string, from uint64) *ScanResult {
	t.Helper()
	sr, err := Scan(fsys, dir, from)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return sr
}

func TestLogAppendScanRoundTrip(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		if err := fsys.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(fsys, dir, &ScanResult{})
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		var want [][]byte
		for i := 0; i < 10; i++ {
			p := fmt.Appendf(nil, "record-%d", i)
			want = append(want, p)
			lsn, err := l.Append(p)
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			if lsn != uint64(i) {
				t.Fatalf("Append LSN = %d, want %d", lsn, i)
			}
			if i == 4 {
				if err := l.Rotate(); err != nil {
					t.Fatalf("Rotate: %v", err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		sr := scanAll(t, fsys, dir, 0)
		if sr.Truncated {
			t.Fatal("clean log reported truncated")
		}
		if len(sr.Records) != 10 {
			t.Fatalf("scan found %d records", len(sr.Records))
		}
		for i, p := range sr.Records {
			if !bytes.Equal(p, want[i]) {
				t.Errorf("record %d = %q", i, p)
			}
		}

		// Scanning from a covered floor skips the first segment's records.
		sr = scanAll(t, fsys, dir, 5)
		if len(sr.Records) != 5 || !bytes.Equal(sr.Records[0], want[5]) {
			t.Fatalf("floor scan = %d records, first %q", len(sr.Records), sr.Records[0])
		}

		// Reopen for append and continue the LSN sequence.
		l2, err := OpenLog(fsys, dir, sr)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if l2.NextLSN() != 10 {
			t.Fatalf("NextLSN = %d", l2.NextLSN())
		}
		if _, err := l2.Append([]byte("record-10")); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if got := scanAll(t, fsys, dir, 0); len(got.Records) != 11 {
			t.Fatalf("after reopen scan found %d records", len(got.Records))
		}
	})
}

func TestLogTornTailTruncatedOnOpen(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		if err := fsys.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(fsys, dir, &ScanResult{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := l.Append(fmt.Appendf(nil, "r%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()

		// Tear the tail: append garbage that looks like a partial frame.
		seg := join(dir, segName(0))
		f, err := fsys.OpenAppend(seg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
			t.Fatal(err)
		}
		f.Close()

		sr := scanAll(t, fsys, dir, 0)
		if !sr.Truncated || len(sr.Records) != 3 {
			t.Fatalf("torn scan: truncated=%v records=%d", sr.Truncated, len(sr.Records))
		}
		l2, err := OpenLog(fsys, dir, sr)
		if err != nil {
			t.Fatalf("open with torn tail: %v", err)
		}
		if _, err := l2.Append([]byte("r3")); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		sr = scanAll(t, fsys, dir, 0)
		if sr.Truncated || len(sr.Records) != 4 || !bytes.Equal(sr.Records[3], []byte("r3")) {
			t.Fatalf("after repair: truncated=%v records=%d", sr.Truncated, len(sr.Records))
		}
	})
}

func TestLogCorruptionDropsLaterSegments(t *testing.T) {
	m := NewMemFS()
	dir := "wal"
	l, err := OpenLog(m, dir, &ScanResult{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(fmt.Appendf(nil, "r%d", i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.Close()
	// Flip a bit inside record 1's payload (first segment, frame 1 starts at
	// byte 10): records 2..3 in the later segment become unreachable.
	if err := m.FlipBit(join(dir, segName(0)), 18); err != nil {
		t.Fatal(err)
	}
	sr := scanAll(t, m, dir, 0)
	if !sr.Truncated || len(sr.Records) != 1 {
		t.Fatalf("corrupt scan: truncated=%v records=%d", sr.Truncated, len(sr.Records))
	}
	l2, err := OpenLog(m, dir, sr)
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextLSN() != 1 {
		t.Fatalf("NextLSN after corruption = %d", l2.NextLSN())
	}
	l2.Close()
	sr = scanAll(t, m, dir, 0)
	if sr.Truncated || len(sr.Records) != 1 {
		t.Fatalf("post-repair scan: truncated=%v records=%d", sr.Truncated, len(sr.Records))
	}
}

func TestCheckpointRoundTripAndFallback(t *testing.T) {
	logFSes(t, func(t *testing.T, fsys FS, dir string) {
		if err := fsys.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		if body, lsn, err := LoadCheckpoint(fsys, dir); err != nil || body != nil || lsn != 0 {
			t.Fatalf("empty dir: %v %v %d", body, err, lsn)
		}
		if err := WriteCheckpoint(fsys, dir, 3, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpoint(fsys, dir, 7, []byte("v2")); err != nil {
			t.Fatal(err)
		}
		body, lsn, err := LoadCheckpoint(fsys, dir)
		if err != nil || string(body) != "v2" || lsn != 7 {
			t.Fatalf("load = %q lsn %d err %v", body, lsn, err)
		}
	})
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	m := NewMemFS()
	dir := "wal"
	m.MkdirAll(dir)
	if err := WriteCheckpoint(m, dir, 3, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(m, dir, 9, []byte("new")); err != nil {
		t.Fatal(err)
	}
	newName := join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, 9, ckptSuffix))
	if err := m.FlipBit(newName, ckptHeader+1); err != nil {
		t.Fatal(err)
	}
	body, lsn, err := LoadCheckpoint(m, dir)
	if err != nil || string(body) != "old" || lsn != 3 {
		t.Fatalf("fallback load = %q lsn %d err %v", body, lsn, err)
	}
	body, lsn, skipped, err := FindCheckpoint(m, dir)
	if err != nil || string(body) != "old" || lsn != 3 || !slices.Equal(skipped, []string{filepath.Base(newName)}) {
		t.Fatalf("FindCheckpoint = %q lsn %d skipped %q err %v", body, lsn, skipped, err)
	}
}

func TestRemoveBelow(t *testing.T) {
	m := NewMemFS()
	dir := "wal"
	l, err := OpenLog(m, dir, &ScanResult{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(fmt.Appendf(nil, "r%d", i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 || i == 3 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Rotate once more (segment at 6), then checkpoint at 4: segments [0,2)
	// and [2,4) are fully covered, the [4,6) segment is not.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(m, dir, 4, []byte("ck")); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(m, dir, 2, []byte("ck-old")); err != nil {
		t.Fatal(err)
	}
	if err := RemoveBelow(m, dir, 4, 4); err != nil {
		t.Fatal(err)
	}
	names, err := m.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint at 2 is the fallback: it survives, and so does the
	// [2,4) segment needed to replay forward from it. Only the [0,2) segment
	// is unreachable from every retained recovery point.
	for _, n := range names {
		if lsn, ok := parseName(n, segPrefix, segSuffix); ok && lsn < 2 {
			t.Errorf("unreachable segment %s survived cleanup", n)
		}
		if lsn, ok := parseName(n, ckptPrefix, ckptSuffix); ok && lsn < 2 {
			t.Errorf("pre-fallback checkpoint %s survived cleanup", n)
		}
	}
	if _, err := m.ReadFile(join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, 2, ckptSuffix))); err != nil {
		t.Fatalf("fallback checkpoint removed: %v", err)
	}
	sr := scanAll(t, m, dir, 4)
	if len(sr.Records) != 2 || !bytes.Equal(sr.Records[0], []byte("r4")) {
		t.Fatalf("post-cleanup scan = %d records", len(sr.Records))
	}
	// Replaying from the fallback checkpoint still works: its tail is intact.
	sr = scanAll(t, m, dir, 2)
	if len(sr.Records) != 4 || !bytes.Equal(sr.Records[0], []byte("r2")) {
		t.Fatalf("fallback scan = %d records", len(sr.Records))
	}
	l.Close()
}

func TestRemoveBelowHonoursLeaseFloor(t *testing.T) {
	m := NewMemFS()
	dir := "wal"
	l, err := OpenLog(m, dir, &ScanResult{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(fmt.Appendf(nil, "r%d", i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := WriteCheckpoint(m, dir, 6, []byte("ck")); err != nil {
		t.Fatal(err)
	}
	// A replica lease at 1 pins every segment from record 1 on, whatever the
	// checkpoint covers: a replica still at position 1 must be able to replay
	// the full tail.
	if err := RemoveBelow(m, dir, 6, 1); err != nil {
		t.Fatal(err)
	}
	sr := scanAll(t, m, dir, 1)
	if len(sr.Records) != 5 || !bytes.Equal(sr.Records[0], []byte("r1")) {
		t.Fatalf("leased scan = %d records (want 5 from r1)", len(sr.Records))
	}
	l.Close()
}

func TestMemFSCrashSemantics(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")
	f, err := m.Create(join("d", "a"))
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello"))
	f.Sync()
	m.SyncDir("d")
	f.Write([]byte(" world"))

	// Crash with no tear: unsynced tail lost.
	c := m.Crash(nil)
	if b, _ := c.ReadFile(join("d", "a")); string(b) != "hello" {
		t.Fatalf("post-crash content %q", b)
	}
	// Torn: 3 bytes of the tail survive.
	c = m.Crash(map[string]int{join("d", "a"): 3})
	if b, _ := c.ReadFile(join("d", "a")); string(b) != "hello wo" {
		t.Fatalf("torn post-crash content %q", b)
	}

	// A created-but-never-dir-synced file vanishes at crash.
	g, _ := m.Create(join("d", "b"))
	g.Write([]byte("x"))
	g.Sync()
	c = m.Crash(nil)
	if _, err := c.ReadFile(join("d", "b")); !IsNotExist(err) {
		t.Fatalf("unsynced entry survived crash: %v", err)
	}

	// A rename is volatile until dir sync: crash resurrects the old name.
	m.Rename(join("d", "a"), join("d", "a2"))
	c = m.Crash(nil)
	if _, err := c.ReadFile(join("d", "a")); err != nil {
		t.Fatalf("old name lost before dir sync: %v", err)
	}
	if _, err := c.ReadFile(join("d", "a2")); !IsNotExist(err) {
		t.Fatal("new name durable before dir sync")
	}
	m.SyncDir("d")
	c = m.Crash(nil)
	if _, err := c.ReadFile(join("d", "a2")); err != nil {
		t.Fatalf("rename lost after dir sync: %v", err)
	}
	if _, err := c.ReadFile(join("d", "a")); !IsNotExist(err) {
		t.Fatal("old name survived dir sync")
	}
}

func TestMemFSInjectedSyncFailure(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")
	fail := true
	m.OnOp = func(op Op, name string) error {
		if fail && op == OpSync {
			return fmt.Errorf("injected fsync failure")
		}
		return nil
	}
	f, _ := m.OpenAppend(join("d", "a"))
	f.Write([]byte("data"))
	if err := f.Sync(); err == nil {
		t.Fatal("injected sync failure not surfaced")
	}
	m.SyncDir("d")
	c := m.Crash(nil)
	if b, _ := c.ReadFile(join("d", "a")); len(b) != 0 {
		t.Fatalf("unsynced data %q survived crash after failed fsync", b)
	}
	fail = false
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	c = m.Crash(nil)
	if b, _ := c.ReadFile(join("d", "a")); string(b) != "data" {
		t.Fatalf("synced data lost: %q", b)
	}
}

// appendFrame appends one framed record to dst: what Log.Append writes.
func appendFrame(dst, payload []byte) []byte {
	dst = appendFrameHeader(dst, len(payload), crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// TestScratchBuffersLetGoOfALargeRecord: the Encoder a committer reuses
// serves one 10 MB record — a bulk load's — and is back under scratchKeep
// afterwards instead of pinning it for good; small records keep reusing one
// buffer; the Log streams the payload through its bounded write buffer and
// keeps no copy; the big record itself reads back intact.
func TestScratchBuffersLetGoOfALargeRecord(t *testing.T) {
	m := NewMemFS()
	dir := "wal"
	l, err := OpenLog(m, dir, &ScanResult{})
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	appendRecord := func(n int) {
		t.Helper()
		enc.Reset()
		enc.String(string(bytes.Repeat([]byte{'x'}, n)))
		if _, err := l.Append(enc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	appendRecord(200)
	small := &enc.Bytes()[0]
	appendRecord(100)
	if &enc.Bytes()[0] != small {
		t.Fatal("small records must keep reusing the scratch buffers")
	}
	appendRecord(10 << 20)
	if cap(enc.Bytes()) < 10<<20 {
		t.Fatal("encoder lost its payload before Reset")
	}
	enc.Reset()
	if cap(enc.Bytes()) > scratchKeep {
		t.Fatalf("after a 10 MB record the encoder keeps %d B, want at most %d", cap(enc.Bytes()), scratchKeep)
	}
	appendRecord(300)
	l.Close()
	sr := scanAll(t, m, dir, 0)
	if sr.Truncated || len(sr.Records) != 4 || len(sr.Records[2]) < 10<<20 || len(sr.Records[3]) > 400 {
		t.Fatalf("scan after the large record: truncated=%v records=%d", sr.Truncated, len(sr.Records))
	}
}
