package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the filesystem every durable file is reached through: the Log,
// Save and Load, and the packages that own logs. OS is the production
// implementation; internal/durable/durabletest holds an in-memory one
// that counts writes and fsyncs and can crash.
type FS interface {
	// OpenFile opens a file the way os.OpenFile does.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new file the way os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm fs.FileMode) error
	// Rename replaces newpath with oldpath atomically and makes the
	// change durable before it returns.
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the creations in dir durable. It is best-effort
	// where the platform cannot fsync a directory.
	SyncDir(dir string)
}

// File is an open file of an FS.
type File interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OS is the operating system's filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return osFile(os.OpenFile(name, flag, perm))
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return osFile(os.CreateTemp(dir, pattern)) }

// osFile keeps a failed open's nil *os.File out of the File interface.
func osFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (o osFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	o.SyncDir(filepath.Dir(newpath))
	return nil
}

func (osFS) SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// errClosed refuses appends to a closed Log.
var errClosed = errors.New("durable: log closed")

// Log is an append-only file of frames of one magic. The file is
// opened on the first write, so replaying a log that is never appended
// to costs one read. A Log is not safe for concurrent use; its owner
// serializes calls.
//
// A failed write or fsync makes the Log refuse every later append
// until the file is reopened: whatever the failed append left behind
// is a torn tail at worst, and the next OpenLog cuts it, so no frame
// that follows an error is ever acknowledged behind a damaged one.
type Log struct {
	fsys  FS
	path  string
	f     File // nil until the first write
	size  int64
	fresh bool  // the file did not exist: its creation needs a directory fsync
	err   error // the first failed append, or errClosed
}

// OpenLog replays the frames of the log at path through apply and
// returns the log ready for appending; a missing file is an empty log,
// created by the first append. tail is how many bytes followed the
// intact frames. A torn tail (ErrTornTail, the shape a crash mid-append
// leaves) is cut, and the cut is durable, before OpenLog returns it as
// err with a usable log. Damage (ErrCorrupt) is left in place and
// returned with the log, whose Size still counts it: the caller picks
// the policy (Truncate to Size()-tail, set the file aside, or refuse).
// Any other error returns no log.
func OpenLog(fsys FS, path, magic string, apply func(payload []byte) error) (l *Log, tail int64, err error) {
	raw, err := fsys.ReadFile(path)
	fresh := errors.Is(err, fs.ErrNotExist)
	if err != nil && !fresh {
		return nil, 0, err
	}
	l = &Log{fsys: fsys, path: path, size: int64(len(raw)), fresh: fresh}
	validLen, derr := Decode(magic, raw, apply)
	tail = int64(len(raw) - validLen)
	if errors.Is(derr, ErrTornTail) {
		if err := l.Truncate(int64(validLen)); err != nil {
			l.Close()
			return nil, 0, err
		}
	}
	return l, tail, derr
}

// Size is the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// open opens the file for appending, creating it durably if OpenLog
// found none.
func (l *Log) open() error {
	if l.f != nil {
		return nil
	}
	if l.err == errClosed {
		return errClosed
	}
	f, err := l.fsys.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	if l.fresh {
		l.fsys.SyncDir(filepath.Dir(l.path))
		l.fresh = false
	}
	return nil
}

// Append writes frames (AppendFrame output of the log's magic) with one
// write and one fsync; no frames cost nothing. It returns the error of
// the first failed append, this one or an earlier one: a failed append
// rolls the file back to its old length as far as the filesystem
// allows, and every later append is refused.
func (l *Log) Append(frames []byte) error {
	if l.err != nil || len(frames) == 0 {
		return l.err
	}
	err := l.open()
	if err == nil {
		var n int
		n, err = l.f.Write(frames)
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil && n > 0 {
			l.f.Truncate(l.size)
		}
	}
	if err != nil {
		l.err = fmt.Errorf("durable: append to %s: %w", l.path, err)
		return l.err
	}
	l.size += int64(len(frames))
	return nil
}

// Truncate cuts the log to n bytes and makes the cut durable. It is a
// repair, not an append, so it works after a failed append; appends
// stay refused.
func (l *Log) Truncate(n int64) error {
	err := l.open()
	if err == nil {
		err = l.f.Truncate(n)
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("durable: truncate %s: %w", l.path, err)
	}
	l.size = n
	return nil
}

// Close closes the file and returns the first error the log hit: a
// failed append or the close itself. Later appends are refused.
func (l *Log) Close() error {
	err := l.err
	if err == errClosed {
		return nil
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.err = errClosed
	return err
}
