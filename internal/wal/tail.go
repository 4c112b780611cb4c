package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Tail is a read cursor over a log directory whose Log is still appending: the
// way a replica follows its primary, recovery that does not stop. It holds a
// segment and the byte offset of the next frame in it, and reads only records
// below a committed LSN its caller supplies. Every such record was written and
// fsync'd before the caller saw that LSN, so a short or corrupt frame there is
// an error, never the end of the log.
//
// Segments the cursor still needs must outlive checkpoint pruning; a reader
// holds a retention floor at its position for that (RemoveBelow's floor).
// The cursor keeps the segment it reads open, from its first read of it until
// it moves on to the next one or Close.
type Tail struct {
	fs    FS
	dir   string
	seg   string // segment being read
	r     Reader // seg, open; nil before its first read
	off   int64  // offset of the next frame in seg
	lsn   uint64 // LSN of that frame
	buf   []byte // the one read buffer; the last payload Next returned aliases it
	probe [1]byte
}

// OpenTail positions a cursor at LSN from, which must not be above the log's
// committed LSN. It opens the segment holding from and steps over the frames
// before it by their length headers, without reading their payloads.
func OpenTail(fsys FS, dir string, from uint64) (*Tail, error) {
	names, starts, err := listByStart(fsys, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	i := sort.Search(len(starts), func(i int) bool { return starts[i] > from }) - 1
	if i < 0 {
		return nil, fmt.Errorf("wal: tail: no segment holds LSN %d", from)
	}
	t := &Tail{fs: fsys, dir: dir, seg: names[i], lsn: starts[i]}
	for t.lsn < from {
		n, err := t.header()
		if err != nil {
			return nil, err
		}
		t.off += frameHeader + int64(n)
		t.lsn++
	}
	return t, nil
}

// LSN returns the position of the record Next reads next.
func (t *Tail) LSN() uint64 { return t.lsn }

// Next reads the record at LSN and advances past it, checking its CRC with
// the frame parser Scan uses. Once LSN reaches committed it reads nothing and
// returns ok == false. The payload aliases the cursor's buffer and is valid
// until the next call.
func (t *Tail) Next(committed uint64) (payload []byte, ok bool, err error) {
	if t.lsn >= committed {
		return nil, false, nil
	}
	n, err := t.header()
	if err != nil {
		return nil, false, err
	}
	size := frameHeader + int(n)
	if size > cap(t.buf) {
		// A corrupt header can claim up to MaxRecordSize: see that the segment
		// holds the frame's last byte before allocating for it.
		if _, err := t.readAt(t.probe[:], t.off+int64(size)-1); err != nil {
			return nil, false, t.errorf("short frame: %v", err)
		}
	}
	t.buf = slices.Grow(t.buf, size)[:size] // the header stays in buf[:frameHeader]
	if _, err := t.readAt(t.buf[frameHeader:], t.off+frameHeader); err != nil {
		return nil, false, t.errorf("short frame: %v", err)
	}
	payload, _, ok = parseFrame(t.buf)
	if !ok {
		return nil, false, t.errorf("corrupt frame")
	}
	t.off += int64(size)
	t.lsn++
	return payload, true, nil
}

// header reads the frame header at the cursor into buf and returns the length
// it claims. At the end of a segment it moves on to the next one: a rotation
// starts the next segment at exactly the LSN the last one ended at. The ended
// segment may already be pruned, since it holds nothing at or above the
// cursor.
func (t *Tail) header() (uint32, error) {
	if cap(t.buf) > scratchKeep { // let go of a bulk load's record
		t.buf = nil
	}
	t.buf = slices.Grow(t.buf[:0], frameHeader)[:frameHeader]
	k, err := t.readAt(t.buf, t.off)
	if k == 0 && t.off > 0 && (errors.Is(err, io.EOF) || IsNotExist(err)) {
		t.Close()
		t.seg, t.off = segName(t.lsn), 0
		k, err = t.readAt(t.buf, 0)
	}
	if k < frameHeader {
		return 0, t.errorf("short frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(t.buf)
	if n > MaxRecordSize {
		return 0, t.errorf("frame length %d", n)
	}
	return n, nil
}

// readAt reads the segment at off, opening it first if the cursor does not
// hold it open yet.
func (t *Tail) readAt(p []byte, off int64) (int, error) {
	if t.r == nil {
		r, err := t.fs.OpenReader(join(t.dir, t.seg))
		if err != nil {
			return 0, err
		}
		t.r = r
	}
	return t.r.ReadAt(p, off)
}

// Close releases the segment the cursor holds open. The cursor stays usable:
// its next read opens the segment again.
func (t *Tail) Close() error {
	if t.r == nil {
		return nil
	}
	err := t.r.Close()
	t.r = nil
	return err
}

func (t *Tail) errorf(format string, args ...any) error {
	return fmt.Errorf("wal: tail: LSN %d at %s+%d: %s", t.lsn, t.seg, t.off, fmt.Sprintf(format, args...))
}
