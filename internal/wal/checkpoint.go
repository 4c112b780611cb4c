package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Checkpoint file format: an 8-byte magic, the CRC32C and length of the
// body, then the body (the serialized snapshot, encoded by internal/core).
// A checkpoint is written to checkpoint-<lsn>.ckpt.tmp, fsync'd, renamed
// into place and made durable with a directory fsync — so a crash at any
// point leaves either the complete new checkpoint or the old state, never a
// half-written file under the live name. Corrupt or truncated checkpoints
// are detected by magic/length/CRC and skipped in favour of the next-newest
// valid one.

var ckptMagic = [8]byte{'M', 'R', 'A', 'G', 'C', 'K', 'P', '1'}

const ckptHeader = 8 + 4 + 8 // magic + crc + length

// WriteCheckpoint durably writes a checkpoint covering every record below
// lsn.
func WriteCheckpoint(fsys FS, dir string, lsn uint64, body []byte) error {
	name := fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
	tmp := join(dir, name+tmpSuffix)
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	hdr := make([]byte, 0, ckptHeader)
	hdr = append(hdr, ckptMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(body, castagnoli))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(body)))
	err = writeAll(f, hdr, body)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: checkpoint %s: %w", name, err)
	}
	if err := fsys.Rename(tmp, join(dir, name)); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: checkpoint dir sync: %w", err)
	}
	return nil
}

func writeAll(f File, bufs ...[]byte) error {
	for _, b := range bufs {
		if _, err := f.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint returns the body and LSN of the newest valid checkpoint in
// dir, or (nil, 0, nil) when none exists. Invalid checkpoints (bad magic,
// short file, CRC mismatch — a crash mid-write that somehow reached the live
// name, or media corruption) are skipped in favour of older ones, never
// fatal: the log tail still covers the gap as long as cleanup has not run,
// and cleanup runs only after a checkpoint is durably complete.
func LoadCheckpoint(fsys FS, dir string) (body []byte, lsn uint64, err error) {
	body, lsn, _, err = FindCheckpoint(fsys, dir)
	return body, lsn, err
}

// FindCheckpoint is LoadCheckpoint that also returns the file names of the
// newer checkpoints it skipped as unreadable or invalid, newest first.
func FindCheckpoint(fsys FS, dir string) (body []byte, lsn uint64, skipped []string, err error) {
	names, lsns, err := listByStart(fsys, dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return nil, 0, nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		if b, err := fsys.ReadFile(join(dir, names[i])); err == nil {
			if body, ok := parseCheckpoint(b); ok {
				return body, lsns[i], skipped, nil
			}
		}
		skipped = append(skipped, names[i])
	}
	return nil, 0, skipped, nil
}

func parseCheckpoint(b []byte) ([]byte, bool) {
	if len(b) < ckptHeader || string(b[:8]) != string(ckptMagic[:]) {
		return nil, false
	}
	crc := binary.LittleEndian.Uint32(b[8:])
	n := binary.LittleEndian.Uint64(b[12:])
	if n != uint64(len(b)-ckptHeader) {
		return nil, false
	}
	body := b[ckptHeader:]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, false
	}
	return body, true
}
