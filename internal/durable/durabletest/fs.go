// Package durabletest is the in-memory durable.FS that tests run the
// repo's durable files on. It counts writes and fsyncs, fails a chosen
// one, and crashes: Crash keeps what a disk could have kept after a
// power cut, so a test can reopen a log at every boundary of an append
// sequence without killing a process.
package durabletest

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"patty/internal/durable"
)

// ErrInjected is the error of an injected failure, and of every
// operation after a halting one.
var ErrInjected = errors.New("durabletest: injected failure")

// FS is an in-memory filesystem. A file's bytes are durable once an
// fsync covered them; a new directory entry once SyncDir ran on its
// directory. Renames and removals are durable at once (durable.FS's
// Rename promises it; removal is never relied on for recovery).
type FS struct {
	// FailWrite and FailSync, when positive, fail the FailWrite-th
	// write (which lands the first half of its bytes, a short write)
	// and the FailSync-th fsync (which syncs nothing).
	FailWrite, FailSync int
	// Halt turns the injected failure into a crash: every later
	// operation fails too, as if the process died there.
	Halt bool

	mu                      sync.Mutex
	writes, syncs, dirSyncs int
	halted                  bool
	files                   map[string]*file
	dirs                    map[string]bool
	seq                     int // CreateTemp names
}

type file struct {
	data, synced []byte
	linked       bool // the directory entry is durable
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string]*file), dirs: make(map[string]bool)}
}

// Counts returns the writes, file fsyncs and directory fsyncs so far.
func (f *FS) Counts() (writes, syncs, dirSyncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs, f.dirSyncs
}

// Crash returns the filesystem a power cut would leave: files whose
// entry was never made durable are gone, and every other file holds
// its synced bytes plus the first keep bytes of what it appended since
// (all of them when keep < 0). A file cut below its synced length
// without a later fsync keeps its synced bytes. The failure knobs and
// counters start afresh.
func (f *FS) Crash(keep int) *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := New()
	for d := range f.dirs {
		out.dirs[d] = true
	}
	for name, fl := range f.files {
		if !fl.linked {
			continue
		}
		data := bytes.Clone(fl.synced)
		if extra, ok := bytes.CutPrefix(fl.data, fl.synced); ok {
			if keep >= 0 && keep < len(extra) {
				extra = extra[:keep]
			}
			data = append(data, extra...)
		}
		out.files[name] = &file{data: data, synced: bytes.Clone(data), linked: true}
	}
	return out
}

// WriteFile plants a durable file, as a test's setup.
func (f *FS) WriteFile(name string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirs[filepath.Dir(name)] = true
	f.files[filepath.Clean(name)] = &file{data: bytes.Clone(data), synced: bytes.Clone(data), linked: true}
}

// op counts a write or fsync and reports whether it fails, and
// whether it is the injected failure itself.
func (f *FS) op(counter *int, failAt int) (injected bool, err error) {
	if f.halted {
		return false, ErrInjected
	}
	*counter++
	if *counter != failAt {
		return false, nil
	}
	f.halted = f.Halt
	return true, ErrInjected
}

func (f *FS) live() error {
	if f.halted {
		return ErrInjected
	}
	return nil
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.live(); err != nil {
		return nil, err
	}
	name = filepath.Clean(name)
	fl := f.files[name]
	switch {
	case fl == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case fl != nil && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case fl == nil:
		if !f.dirs[filepath.Dir(name)] {
			return nil, notExist("open", name)
		}
		fl = &file{}
		f.files[name] = fl
	}
	return &handle{fs: f, name: name, f: fl}, nil
}

func (f *FS) CreateTemp(dir, pattern string) (durable.File, error) {
	f.mu.Lock()
	f.seq++
	name := filepath.Join(dir, strings.Replace(pattern, "*", fmt.Sprint(f.seq), 1))
	f.mu.Unlock()
	return f.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.live(); err != nil {
		return nil, err
	}
	fl := f.files[filepath.Clean(name)]
	if fl == nil {
		return nil, notExist("read", name)
	}
	return bytes.Clone(fl.data), nil
}

func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.live(); err != nil {
		return nil, err
	}
	name = filepath.Clean(name)
	if !f.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for p := range f.files {
		if filepath.Dir(p) == name {
			out = append(out, dirEntry(path.Base(p)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (f *FS) MkdirAll(dir string, perm fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.live(); err != nil {
		return err
	}
	for d := filepath.Clean(dir); !f.dirs[d]; d = filepath.Dir(d) {
		f.dirs[d] = true
	}
	return nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.live(); err != nil {
		return err
	}
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	fl := f.files[oldpath]
	if fl == nil {
		return notExist("rename", oldpath)
	}
	delete(f.files, oldpath)
	fl.linked = true
	f.files[newpath] = fl
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.live(); err != nil {
		return err
	}
	name = filepath.Clean(name)
	if f.files[name] == nil {
		return notExist("remove", name)
	}
	delete(f.files, name)
	return nil
}

func (f *FS) SyncDir(dir string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.live() != nil {
		return
	}
	f.dirSyncs++
	dir = filepath.Clean(dir)
	for p, fl := range f.files {
		if filepath.Dir(p) == dir {
			fl.linked = true
		}
	}
}

// handle is an open file. Writes append: every durable writer in the
// repo writes a new file front to back or appends.
type handle struct {
	fs     *FS
	name   string
	f      *file
	closed bool
}

func (h *handle) Name() string { return h.name }

func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if injected, err := h.fs.op(&h.fs.writes, h.fs.FailWrite); err != nil {
		if !injected {
			return 0, err
		}
		n := len(p) / 2
		h.f.data = append(h.f.data, p[:n]...)
		return n, err
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if _, err := h.fs.op(&h.fs.syncs, h.fs.FailSync); err != nil {
		return err
	}
	h.f.synced = bytes.Clone(h.f.data)
	return nil
}

func (h *handle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if err := h.fs.live(); err != nil {
		return err
	}
	if size <= int64(len(h.f.data)) {
		h.f.data = h.f.data[:size:size]
	} else {
		h.f.data = append(h.f.data, make([]byte, size-int64(len(h.f.data)))...)
	}
	return nil
}

func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	return nil
}

type dirEntry string

func (d dirEntry) Name() string               { return string(d) }
func (d dirEntry) IsDir() bool                { return false }
func (d dirEntry) Type() fs.FileMode          { return 0 }
func (d dirEntry) Info() (fs.FileInfo, error) { return nil, errors.ErrUnsupported }

// CrashPoint is one place a run of appends can die: at the FailWrite-th
// write (half of it landed) or the FailSync-th fsync (its write landed,
// unsynced), after which Crash keeps Keep of the unsynced bytes.
type CrashPoint struct {
	FailWrite, FailSync, Keep int
}

func (c CrashPoint) String() string {
	return fmt.Sprintf("write%d/sync%d/keep%d", c.FailWrite, c.FailSync, c.Keep)
}

// CrashPoints lists every crash point of a run of n appends of one
// write and one fsync each: the boundary before and inside each write
// and between each write and its fsync, each with none, one byte and
// all of the unsynced bytes kept. A crash after the last fsync is the
// point past the end: write n+1, which never comes.
func CrashPoints(n int) []CrashPoint {
	var out []CrashPoint
	for i := 1; i <= n+1; i++ {
		for _, keep := range []int{0, 1, -1} {
			out = append(out, CrashPoint{FailWrite: i, Keep: keep})
			if i <= n {
				out = append(out, CrashPoint{FailSync: i, Keep: keep})
			}
		}
	}
	return out
}

// Arm returns a filesystem that dies at c.
func (c CrashPoint) Arm() *FS {
	f := New()
	f.FailWrite, f.FailSync, f.Halt = c.FailWrite, c.FailSync, true
	return f
}
