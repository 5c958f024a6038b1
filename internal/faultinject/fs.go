package faultinject

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// File is the slice of *os.File the stores need: streaming reads and
// writes, seeking (upload spools rewind before commit), the name for
// cleanup, and what an append-only log adds — writes at an offset and
// Sync for AppendFile (one log is durable before it acknowledges), reads
// at an offset for whoever reads its records.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem seam the distribution-stack stores write
// through: the create/write/rename/remove surface of their
// temp-file-plus-rename commit protocol (Commit), and the open-in-place
// and touch an append-only log needs (AppendFile). The real
// implementation is OS(); FaultFS wraps any FS with an injection plan.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	CreateTemp(dir, pattern string) (File, error)
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Stat(name string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	Chmod(name string, mode fs.FileMode) error
	Chtimes(name string, atime, mtime time.Time) error
}

// osFS is the passthrough FS over package os.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Stat(name string) (fs.FileInfo, error)     { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) RemoveAll(path string) error               { return os.RemoveAll(path) }
func (osFS) Chmod(name string, mode fs.FileMode) error { return os.Chmod(name, mode) }
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// Open opens name for reading through fsys.
func Open(fsys FS, name string) (File, error) { return fsys.OpenFile(name, os.O_RDONLY, 0) }

// Commit is the stores' crash-safe file write: it puts data at path
// (mode 0 keeps a temp file's 0600) so that at every instant, and after
// a crash at any of them, path holds its old content or the new,
// never a torn mix. What a crash can leave behind is a file beside path
// whose name starts with prefix; each store sweeps or skips its prefix
// when it opens.
func Commit(fsys FS, path, prefix string, data []byte, mode fs.FileMode) error {
	tmp, err := WriteTemp(fsys, path, prefix, data, mode)
	if err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}

// WriteTemp is the first half of Commit for a caller that must do the
// second — fsys.Rename(tmp, path), fsys.Remove(tmp) if that fails —
// itself, under a lock: it writes and closes the temp file and returns
// its name, or removes it on failure.
func WriteTemp(fsys FS, path, prefix string, data []byte, mode fs.FileMode) (string, error) {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), prefix+"*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && mode != 0 {
		err = fsys.Chmod(tmp.Name(), mode)
	}
	if err != nil {
		fsys.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// FaultFS wraps a base FS with a fault plan. Metadata operations
// (create, rename, remove, mkdir, stat, open, chmod, chtimes) are
// eligible for EIO and PowerCut, as are a file's ReadAt and Sync; Write
// and WriteAt additionally for ShortWrite. Once a PowerCut fires the FS
// is dead: every later operation — including the cleanup removes a
// store would run on the error path — fails with ErrPowerCut, so the
// on-disk state freezes exactly as a crash would leave it.
type FaultFS struct {
	base FS
	plan *Plan
	dead atomic.Bool
}

// NewFS wraps base with plan.
func NewFS(base FS, plan *Plan) *FaultFS {
	return &FaultFS{base: base, plan: plan}
}

// Dead reports whether a PowerCut has fired.
func (f *FaultFS) Dead() bool { return f.dead.Load() }

// Plan returns the plan driving this FS.
func (f *FaultFS) Plan() *Plan { return f.plan }

// meta runs the shared fault check for an operation that either
// happens whole or not at all.
func (f *FaultFS) meta(op string) error {
	if f.dead.Load() {
		return ErrPowerCut
	}
	kind, ok := f.plan.next(op, EIO, PowerCut)
	if !ok {
		return nil
	}
	if kind == PowerCut {
		f.dead.Store(true)
		return ErrPowerCut
	}
	return ErrInjected
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.meta("mkdir " + path); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

// wrap hands out file, or nothing once err is set, with this FS's
// fault points on it.
func (f *FaultFS) wrap(file File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.meta("create " + dir); err != nil {
		return nil, err
	}
	return f.wrap(f.base.CreateTemp(dir, pattern))
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := f.meta("open " + name); err != nil {
		return nil, err
	}
	return f.wrap(f.base.OpenFile(name, flag, perm))
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := f.meta("stat " + name); err != nil {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.meta("rename " + newpath); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.meta("remove " + name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *FaultFS) RemoveAll(path string) error {
	if err := f.meta("remove " + path); err != nil {
		return err
	}
	return f.base.RemoveAll(path)
}

func (f *FaultFS) Chmod(name string, mode fs.FileMode) error {
	if err := f.meta("chmod " + name); err != nil {
		return err
	}
	return f.base.Chmod(name, mode)
}

func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	if err := f.meta("chtimes " + name); err != nil {
		return err
	}
	return f.base.Chtimes(name, atime, mtime)
}

// faultFile injects faults on a file from a FaultFS.
type faultFile struct {
	File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) { return w.write(p, w.File.Write) }

func (w *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return w.write(p, func(p []byte) (int, error) { return w.File.WriteAt(p, off) })
}

// write passes p to do, all of it or — under a fault — a seeded prefix.
func (w *faultFile) write(p []byte, do func([]byte) (int, error)) (int, error) {
	if w.fs.dead.Load() {
		return 0, ErrPowerCut
	}
	kind, ok := w.fs.plan.next("write "+w.Name(), EIO, ShortWrite, PowerCut)
	if !ok {
		return do(p)
	}
	switch kind {
	case EIO:
		return 0, ErrInjected
	case ShortWrite:
		// Persist a seeded prefix — a torn page — then fail.
		n, _ := do(p[:w.fs.plan.intn(len(p))])
		return n, ErrInjected
	default: // PowerCut
		n, _ := do(p[:w.fs.plan.intn(len(p))])
		w.fs.dead.Store(true)
		return n, ErrPowerCut
	}
}

func (w *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := w.fs.meta("read " + w.Name()); err != nil {
		return 0, err
	}
	return w.File.ReadAt(p, off)
}

func (w *faultFile) Truncate(size int64) error {
	if err := w.fs.meta("truncate " + w.Name()); err != nil {
		return err
	}
	return w.File.Truncate(size)
}

func (w *faultFile) Sync() error {
	if err := w.fs.meta("sync " + w.Name()); err != nil {
		return err
	}
	return w.File.Sync()
}

// Close closes the underlying file either way (no fd leak in tests)
// but reports the power cut if one fired.
func (w *faultFile) Close() error {
	err := w.File.Close()
	if w.fs.dead.Load() {
		return ErrPowerCut
	}
	return err
}
