package wal

import (
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
)

// Segment and checkpoint file naming. Segments are named by the LSN of their
// first record; checkpoints by the LSN they cover (every record below it is
// folded into the checkpoint body).
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
)

func segName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, lsn, segSuffix)
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listByStart returns the names with the given prefix/suffix sorted by their
// embedded LSN, plus the parsed LSNs. A missing directory lists as empty.
func listByStart(fsys FS, dir, prefix, suffix string) (names []string, lsns []uint64, err error) {
	all, err := fsys.ReadDir(dir)
	if err != nil {
		if IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	type ent struct {
		name string
		lsn  uint64
	}
	var ents []ent
	for _, n := range all {
		if lsn, ok := parseName(n, prefix, suffix); ok {
			ents = append(ents, ent{n, lsn})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].lsn < ents[j].lsn })
	for _, e := range ents {
		names = append(names, e.name)
		lsns = append(lsns, e.lsn)
	}
	return names, lsns, nil
}

// ScanResult is what a recovery scan of the log directory found.
type ScanResult struct {
	// Records holds the valid payloads with LSNs [From, From+len(Records)).
	Records [][]byte
	// From is the LSN of the first returned record (the scan floor).
	From uint64
	// Truncated reports that invalid bytes (torn tail or corrupt frame) were
	// found and everything at or after them must be discarded.
	Truncated bool
	// truncSeg/truncLen locate the first invalid byte: segment name and the
	// clean byte length to truncate it to. dropSegs lists whole segments at
	// or after the corruption (unreachable records).
	truncSeg  string
	truncLen  int
	dropSegs  []string
	activeSeg string // last surviving segment ("" when none)
	activeLen int    // its clean byte length
}

// Scan reads every log record with LSN >= from out of dir, stopping at the
// first invalid frame. Segments entirely below from (already folded into the
// checkpoint the caller loaded) are skipped without even parsing, so
// corruption inside covered history can never poison the replayable tail.
func Scan(fsys FS, dir string, from uint64) (*ScanResult, error) {
	names, starts, err := listByStart(fsys, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	sr := &ScanResult{From: from}
	if len(names) > 0 && from < starts[0] {
		return nil, fmt.Errorf("wal: log gap: checkpoint covers LSN %d but oldest segment starts at %d", from, starts[0])
	}
	lsn := from
	for i, name := range names {
		if i+1 < len(names) && starts[i+1] <= from {
			continue // fully covered by the checkpoint
		}
		if sr.Truncated {
			// Records after a corrupt frame are unreachable: later segments
			// are dropped wholesale.
			sr.dropSegs = append(sr.dropSegs, name)
			continue
		}
		b, err := fsys.ReadFile(join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		payloads, cleanLen, clean := parseFrames(b)
		lsn = starts[i]
		for _, p := range payloads {
			if lsn >= from {
				sr.Records = append(sr.Records, p)
			}
			lsn++
		}
		sr.activeSeg, sr.activeLen = name, cleanLen
		if !clean {
			sr.Truncated = true
			sr.truncSeg, sr.truncLen = name, cleanLen
		}
	}
	if lsn < from {
		// Every segment ended below the checkpoint (the checkpoint is newer
		// than the whole surviving log): nothing to replay, and the opener
		// must start a fresh segment at the checkpoint LSN rather than
		// appending mid-history.
		sr.activeSeg, sr.activeLen = "", 0
	}
	return sr, nil
}

// NextLSN returns the LSN one past the last valid record found.
func (sr *ScanResult) NextLSN() uint64 { return sr.From + uint64(len(sr.Records)) }

// Log is the append side of the segmented record log. Not safe for
// concurrent use; the committer serializes appends under its own lock.
type Log struct {
	fs     FS
	dir    string
	f      File
	active string // active segment name
	next   uint64 // next LSN to assign
	size   int    // bytes in the active segment
	err    error  // latched append failure; the log refuses further work
	buf    []byte // the write buffer every frame streams through, made on first use
}

// appendBuffer is the size of the one buffer a Log streams its frames
// through: a record of any size reaches the segment in writes of this size
// (the last one shorter), and the log never holds more of it than this.
const appendBuffer = 64 << 10

// OpenLog repairs the log per sr (truncating the torn segment, dropping
// unreachable ones) and opens it for appending after sr's last valid record.
// With no surviving segment it creates one starting at sr.NextLSN().
func OpenLog(fsys FS, dir string, sr *ScanResult) (*Log, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	l := &Log{fs: fsys, dir: dir, next: sr.NextLSN()}
	if sr.Truncated {
		for _, name := range sr.dropSegs {
			if err := fsys.Remove(join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: drop segment %s: %w", name, err)
			}
		}
	}
	if sr.activeSeg == "" {
		return l, l.rotate()
	}
	f, err := fsys.OpenAppend(join(dir, sr.activeSeg))
	if err != nil {
		return nil, err
	}
	if sr.Truncated && sr.activeSeg == sr.truncSeg {
		if err := f.Truncate(int64(sr.truncLen)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", sr.activeSeg, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if sr.Truncated {
		if err := fsys.SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	l.f, l.active, l.size = f, sr.activeSeg, sr.activeLen
	return l, nil
}

// Append durably writes one record and returns its LSN: the frame is written
// and fsync'd before Append returns nil. It is AppendParts with a single
// part.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendParts([][]byte{payload})
}

// AppendParts durably writes one record whose payload is the concatenation of
// parts, and returns its LSN: the frame is written and fsync'd before
// AppendParts returns nil. The payload is never assembled: the CRC is folded
// over the parts, and the header and the parts are streamed into the segment
// through the log's one bounded buffer (appendBuffer), so the bytes on disk
// are those of one frame however the payload is split. A crash between two of
// its writes leaves a torn frame, which recovery truncates like any other.
//
// A payload over MaxRecordSize is refused with ErrRecordTooLarge before
// anything is written; the log stays appendable. Any other error means the
// record must be treated as not written — and the log latches failed: after
// a failed write or fsync the segment's on-disk state is unknowable (the
// kernel may have dropped the dirty pages and cleared the error, or a
// complete frame may have landed without being acknowledged), so appending
// past it could duplicate or misnumber records. Every later append and Rotate
// returns the latched error; only a restart's Scan/OpenLog repair makes the
// directory appendable again.
func (l *Log) AppendParts(parts [][]byte) (uint64, error) {
	if l.err != nil {
		return 0, l.err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxRecordSize {
		return 0, fmt.Errorf("%w: a %d-byte payload, over the %d-byte limit", ErrRecordTooLarge, n, MaxRecordSize)
	}
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	if l.buf == nil {
		l.buf = make([]byte, 0, appendBuffer)
	}
	buf := appendFrameHeader(l.buf[:0], n, crc)
	for _, p := range parts {
		for len(p) > 0 {
			k := copy(buf[len(buf):cap(buf)], p)
			buf, p = buf[:len(buf)+k], p[k:]
			if len(buf) == cap(buf) {
				if err := l.write(buf); err != nil {
					return 0, err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		if err := l.write(buf); err != nil {
			return 0, err
		}
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return 0, l.err
	}
	lsn := l.next
	l.next++
	l.size += frameHeader + n
	return lsn, nil
}

// write hands one buffer of a frame to the active segment, latching the log
// on failure.
func (l *Log) write(b []byte) error {
	if _, err := l.f.Write(b); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	return nil
}

// NextLSN returns the LSN the next Append will be assigned — equivalently,
// the number of records ever committed.
func (l *Log) NextLSN() uint64 { return l.next }

// Failed returns the latched append error, nil while the log is healthy. Like
// every Log method it relies on the caller's external synchronization (core
// holds System.mu around the log). The health endpoint surfaces this: a
// latched log means ingest is failing durably until restart, which is a
// degraded-but-alive condition, not a dead process.
func (l *Log) Failed() error { return l.err }

// ActiveSize returns the byte size of the active segment.
func (l *Log) ActiveSize() int { return l.size }

// Rotate closes the active segment and starts a fresh one at the current
// LSN. The checkpointer rotates before serializing, so every earlier segment
// is fully covered by the checkpoint it is about to write.
func (l *Log) Rotate() error {
	if l.err != nil {
		// Rotating past a failed append would leave the dead segment's
		// unacknowledged tail bytes inside live history with a successor
		// segment whose name no longer matches the record count — recovery
		// would then double-count. The directory stays frozen until restart.
		return l.err
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	return l.rotate()
}

func (l *Log) rotate() error {
	name := segName(l.next)
	f, err := l.fs.Create(join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.active, l.size = f, name, 0
	return nil
}

// Close releases the active segment handle. Every committed record is
// already durable (Append fsyncs), so Close has nothing to flush.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// RemoveBelow is the cleanup step after a successful checkpoint at lsn, with
// two retention guarantees layered on plain "delete what the checkpoint
// covers":
//
//   - Fallback checkpoint: the newest checkpoint OLDER than lsn survives,
//     along with every segment needed to replay forward from it. If the new
//     checkpoint is later destroyed by media corruption, recovery falls back
//     to the older one and replays the longer tail instead of failing.
//   - Lease floor: no segment containing records at or above floor is
//     deleted, whatever the checkpoint covers. Replicas hold floor at the
//     slowest one's position (core.WALLease), so pruning under a lagging
//     replica never deletes records its Tail has yet to read.
//
// Effectively segments survive down to min(floor, fallback-checkpoint LSN);
// checkpoints below the fallback, and stray .tmp files, are removed.
// Failures here are garbage, not corruption: a later open ignores leftovers.
func RemoveBelow(fsys FS, dir string, lsn, floor uint64) error {
	names, starts, err := listByStart(fsys, dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	ckNames, ckLSNs, err := listByStart(fsys, dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return err
	}
	// The fallback checkpoint is the newest one strictly below lsn; with none
	// on disk there is nothing to replay from, so it does not hold segments.
	fallback := lsn
	for i := len(ckLSNs) - 1; i >= 0; i-- {
		if ckLSNs[i] < lsn {
			fallback = ckLSNs[i]
			break
		}
	}
	segFloor := min(lsn, floor, fallback)
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	for i, name := range names {
		end := lsn // assume the last segment runs to the checkpoint
		if i+1 < len(names) {
			end = starts[i+1]
		}
		if end <= segFloor && starts[i] < segFloor {
			keep(fsys.Remove(join(dir, name)))
		}
	}
	for i, name := range ckNames {
		if ckLSNs[i] < lsn && ckLSNs[i] != fallback {
			keep(fsys.Remove(join(dir, name)))
		}
	}
	all, err := fsys.ReadDir(dir)
	if err == nil {
		for _, name := range all {
			if strings.HasSuffix(name, tmpSuffix) {
				keep(fsys.Remove(join(dir, name)))
			}
		}
	}
	keep(fsys.SyncDir(dir))
	return firstErr
}
