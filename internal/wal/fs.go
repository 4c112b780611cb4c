package wal

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the mutable-file surface the log and checkpoint writers need:
// sequential writes, durability, tail truncation (torn-record repair).
type File interface {
	Write(p []byte) (int, error)
	// Sync flushes written data to stable storage. A record is durable only
	// after its Append's Sync returned nil.
	Sync() error
	// Truncate discards everything past size — the torn-tail repair on the
	// active segment at recovery.
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem seam every durable byte goes through. Production uses
// OSFS; the recovery-equivalence suite substitutes MemFS, whose crash
// semantics (unsynced data lost, unsynced directory entries lost, torn tails,
// injected faults) drive the crash matrix.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create creates or truncates name for writing.
	Create(name string) (File, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// OpenReader opens name for reads at offsets. The reader sees what is
	// appended to the file after it was opened, and keeps reading the file
	// after it is renamed or removed, as an open descriptor does. It is how
	// a Tail follows a segment another writer is still appending to.
	OpenReader(name string) (Reader, error)
	// Rename atomically replaces newname with oldname. Durable only after a
	// SyncDir on the parent directory.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists the file names (not paths) inside dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself, making entry creations, renames
	// and removals durable.
	SyncDir(dir string) error
}

// Reader reads an open file at offsets, with io.ReaderAt's contract: fewer
// bytes come back only with an error, io.EOF at the end of the file.
type Reader interface {
	io.ReaderAt
	io.Closer
}

// OSFS is the production FS over the real filesystem.
type OSFS struct{}

// appendFile is an *os.File whose Sync is fdatasync where the platform has
// it: log appends only need the written frames and the grown file size
// durable, not the inode timestamps a full fsync also flushes.
type appendFile struct{ *os.File }

func (f appendFile) Sync() error { return datasync(f.File) }

func (OSFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return appendFile{f}, nil
}

func (OSFS) Create(name string) (File, error) { return os.Create(name) }

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSFS) OpenReader(name string) (Reader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// IsNotExist reports whether err means a missing file on either FS.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// join builds FS paths. Both OSFS and MemFS use the host separator, so the
// log and checkpoint code share one path builder.
func join(dir, name string) string { return filepath.Join(dir, name) }
