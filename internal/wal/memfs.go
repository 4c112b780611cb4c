package wal

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Op names one mutating filesystem operation for fault injection.
type Op string

// The mutating operations OnOp observes.
const (
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpCreate   Op = "create"
	OpAppend   Op = "append"
	OpTruncate Op = "truncate"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpSyncDir  Op = "syncdir"
)

// MemFS is an in-memory FS with POSIX-style crash semantics, built for the
// recovery-equivalence suite:
//
//   - file content written but not File.Sync'd is volatile;
//   - directory entries created, renamed or removed but not SyncDir'd are
//     volatile (a freshly created file vanishes at crash until its directory
//     is synced; a rename's old name reappears);
//   - Crash derives the post-crash filesystem — durable entries with their
//     synced content — optionally keeping a caller-chosen number of unsynced
//     tail bytes per file (a torn write at any byte offset);
//   - FlipBit corrupts one durable bit in place (media corruption);
//   - OnOp, when set, observes every mutating operation and may fail it
//     (fsync failure, crash mid-checkpoint between create and rename).
//
// All methods are safe for concurrent use.
type MemFS struct {
	mu sync.Mutex
	// files is the volatile namespace: path → inode.
	files map[string]*memInode
	// durable is the durable namespace: path → the inode durably linked at
	// that name (content durability is the inode's own synced copy).
	durable map[string]*memInode
	dirs    map[string]bool

	// OnOp, when non-nil, runs before every mutating operation; a non-nil
	// return fails the operation with that error. Set it under no lock —
	// before handing the FS to the system under test.
	OnOp func(op Op, name string) error
}

type memInode struct {
	data []byte // current content
	// syncedLen marks data[:syncedLen] as the durable content of the last
	// successful Sync. Writes only ever append, so the durable prefix can
	// share data's backing array and Sync is O(1) — a full copy per fsync
	// made every long append history quadratic.
	syncedLen int
	// diverged, when non-nil, overrides the prefix view: a Truncate below
	// syncedLen lets later appends rewrite offsets the durable copy still
	// covers, so the durable content is materialised privately first.
	diverged []byte
}

// syncedContent returns the durable content view (read-only unless diverged).
func (ino *memInode) syncedContent() []byte {
	if ino.diverged != nil {
		return ino.diverged
	}
	return ino.data[:ino.syncedLen]
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		files:   map[string]*memInode{},
		durable: map[string]*memInode{},
		dirs:    map[string]bool{},
	}
}

func (m *MemFS) inject(op Op, name string) error {
	if m.OnOp != nil {
		return m.OnOp(op, name)
	}
	return nil
}

func notExist(name string) error {
	return fmt.Errorf("memfs: %s: %w", name, fs.ErrNotExist)
}

type memFile struct {
	fs   *MemFS
	name string
	ino  *memInode
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.inject(OpWrite, f.name); err != nil {
		return 0, err
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.inject(OpSync, f.name); err != nil {
		return err
	}
	f.ino.diverged = nil
	f.ino.syncedLen = len(f.ino.data)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.inject(OpTruncate, f.name); err != nil {
		return err
	}
	if int(size) < len(f.ino.data) {
		if f.ino.diverged == nil && int(size) < f.ino.syncedLen {
			f.ino.diverged = append([]byte(nil), f.ino.data[:f.ino.syncedLen]...)
		}
		f.ino.data = f.ino.data[:size]
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// OpenAppend opens (or creates) name for appending.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.inject(OpAppend, name); err != nil {
		return nil, err
	}
	ino := m.files[name]
	if ino == nil {
		ino = &memInode{}
		m.files[name] = ino
	}
	return &memFile{fs: m, name: name, ino: ino}, nil
}

// Create creates or truncates name.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.inject(OpCreate, name); err != nil {
		return nil, err
	}
	ino := &memInode{}
	m.files[name] = ino
	return &memFile{fs: m, name: name, ino: ino}, nil
}

// ReadFile returns a copy of name's current (volatile) content.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[name]
	if ino == nil {
		return nil, notExist(name)
	}
	return append([]byte(nil), ino.data...), nil
}

// OpenReader opens name's inode for reads: like a descriptor, the reader
// keeps it across a rename or removal of the name.
func (m *MemFS) OpenReader(name string) (Reader, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[name]
	if ino == nil {
		return nil, notExist(name)
	}
	return &memReader{fs: m, ino: ino}, nil
}

type memReader struct {
	fs  *MemFS
	ino *memInode
}

// ReadAt copies the file's current (volatile) content at off into p.
func (r *memReader) ReadAt(p []byte, off int64) (int, error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	data := r.ino.data
	if off > int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *memReader) Close() error { return nil }

// Rename atomically moves oldname onto newname in the volatile namespace.
// The durable namespace keeps both previous bindings until SyncDir.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.inject(OpRename, oldname); err != nil {
		return err
	}
	ino := m.files[oldname]
	if ino == nil {
		return notExist(oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = ino
	return nil
}

// Remove deletes name from the volatile namespace.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.inject(OpRemove, name); err != nil {
		return err
	}
	if m.files[name] == nil {
		return notExist(name)
	}
	delete(m.files, name)
	return nil
}

// ReadDir lists file names directly inside dir, sorted.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, notExist(dir)
	}
	var names []string
	prefix := dir + string(filepath.Separator)
	for p := range m.files {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], string(filepath.Separator)) {
			names = append(names, p[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll records dir (and implicitly its parents) as existing. Directory
// existence itself is treated as durable — the recovery contract covers file
// data and entries, and core creates its directory before any commit.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

// SyncDir makes dir's current entries durable: names now present are durably
// bound to their inodes, names removed or renamed away durably disappear.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.inject(OpSyncDir, dir); err != nil {
		return err
	}
	prefix := dir + string(filepath.Separator)
	for p := range m.durable {
		if strings.HasPrefix(p, prefix) && m.files[p] == nil {
			delete(m.durable, p)
		}
	}
	for p, ino := range m.files {
		if strings.HasPrefix(p, prefix) {
			m.durable[p] = ino
		}
	}
	return nil
}

// Crash derives the post-crash filesystem: the durable namespace only, every
// file at its last-synced content plus up to torn[path] bytes of its unsynced
// tail (a torn append). Paths absent from torn lose their whole unsynced
// tail. The receiver is left untouched, so a test can crash the same history
// at many tear offsets.
func (m *MemFS) Crash(torn map[string]int) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for d := range m.dirs {
		out.dirs[d] = true
	}
	for p, ino := range m.durable {
		synced := ino.syncedContent()
		data := append([]byte(nil), synced...)
		if keep := torn[p]; keep > 0 && len(ino.data) > len(synced) {
			tail := ino.data[len(synced):]
			if keep > len(tail) {
				keep = len(tail)
			}
			data = append(data, tail[:keep]...)
		}
		out.files[p] = &memInode{data: data, syncedLen: len(data)}
		out.durable[p] = out.files[p]
	}
	return out
}

// UnsyncedTail returns how many bytes of name's content are not yet durable —
// the range of valid tear offsets for Crash.
func (m *MemFS) UnsyncedTail(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[name]
	if ino == nil {
		return 0
	}
	return len(ino.data) - len(ino.syncedContent())
}

// FlipBit flips one bit of name's content in place, in both the volatile and
// durable copies — media corruption that survives a crash.
func (m *MemFS) FlipBit(name string, byteOff int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[name]
	if ino == nil {
		return notExist(name)
	}
	if byteOff < 0 || byteOff >= len(ino.data) {
		return fmt.Errorf("memfs: flip offset %d out of range [0,%d)", byteOff, len(ino.data))
	}
	ino.data[byteOff] ^= 1 << 5
	// The durable prefix aliases data, so its flip already happened above;
	// only a materialised diverged copy needs its own.
	if ino.diverged != nil && byteOff < len(ino.diverged) {
		ino.diverged[byteOff] ^= 1 << 5
	}
	return nil
}

// FileSize returns name's current content length (0 when absent).
func (m *MemFS) FileSize(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[name]
	if ino == nil {
		return 0
	}
	return len(ino.data)
}
