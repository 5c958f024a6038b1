package faultinject

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// File is the slice of *os.File the stores need: streaming reads and
// writes, seeking (upload spools rewind before commit), and the name
// for cleanup.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Name() string
}

// FS is the filesystem seam the distribution-stack stores write
// through: exactly the create/write/rename/remove surface their
// temp-file-plus-rename commit protocol uses. The real implementation
// is OS(); FaultFS wraps any FS with an injection plan.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	CreateTemp(dir, pattern string) (File, error)
	Open(name string) (File, error)
	Stat(name string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chmod(name string, mode fs.FileMode) error
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

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Stat(name string) (fs.FileInfo, error)     { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) Chmod(name string, mode fs.FileMode) error { return os.Chmod(name, mode) }

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
// (create, rename, remove, mkdir, stat, open, chmod) are eligible for
// EIO and PowerCut; writes additionally for ShortWrite. Once a
// PowerCut fires the FS is dead: every later operation — including the
// cleanup removes a store would run on the error path — fails with
// ErrPowerCut, so the on-disk state freezes exactly as a crash would
// leave it.
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

// meta runs the shared fault check for a metadata operation.
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

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.meta("create " + dir); err != nil {
		return nil, err
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if err := f.meta("open " + name); err != nil {
		return nil, err
	}
	return f.base.Open(name)
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

func (f *FaultFS) Chmod(name string, mode fs.FileMode) error {
	if err := f.meta("chmod " + name); err != nil {
		return err
	}
	return f.base.Chmod(name, mode)
}

// faultFile injects write faults on a file from a FaultFS.
type faultFile struct {
	File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.fs.dead.Load() {
		return 0, ErrPowerCut
	}
	kind, ok := w.fs.plan.next("write "+w.Name(), EIO, ShortWrite, PowerCut)
	if !ok {
		return w.File.Write(p)
	}
	switch kind {
	case EIO:
		return 0, ErrInjected
	case ShortWrite:
		// Persist a seeded prefix — a torn page — then fail.
		n, _ := w.File.Write(p[:w.fs.plan.intn(len(p))])
		return n, ErrInjected
	default: // PowerCut
		n, _ := w.File.Write(p[:w.fs.plan.intn(len(p))])
		w.fs.dead.Store(true)
		return n, ErrPowerCut
	}
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
