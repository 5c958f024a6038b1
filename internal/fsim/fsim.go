// Package fsim implements a POSIX file system simulator.
//
// coMtainer needs to know the final file system state of a container image
// after all of its layers have been applied (paper §4.5: "parsing OCI images
// requires a POSIX file system simulator to compute the final file system
// state after applying all image layers"). An FS is an in-memory tree of
// regular files, directories and symlinks keyed by clean absolute paths.
// Layers are themselves FS values; whiteout entries (the OCI ".wh." naming
// convention) mark deletions, and Apply/Diff convert between layer stacks
// and flattened states.
//
// An FS is safe for concurrent use: the parallel rebuild executor compiles
// independent build-graph nodes against one shared container file system.
// File values are immutable once inserted — mutators always install fresh
// entries, never write through an existing *File or into its Data — so
// pointers returned by Stat/Walk remain race-free snapshots, and Clone,
// Apply, ApplyAll and Diff share entries between file systems
// instead of copying them: a snapshot costs O(entries), not O(bytes).
package fsim

import (
	"errors"
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"unsafe"
)

// FileType discriminates the kinds of entries an FS can hold.
type FileType uint8

// The supported entry kinds.
const (
	TypeRegular FileType = iota
	TypeDir
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "regular"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileType(%d)", uint8(t))
	}
}

// File is a single file system entry. Data is nil for directories; Target
// is empty except for symlinks. Mode holds only permission bits — the type
// is carried by Type. A File is immutable once it has been added to an FS,
// bytes of Data included: any number of file systems may hold the same
// *File. To change an entry, build a new File (Clone gives a private
// struct to edit) and Add it.
type File struct {
	Path   string
	Type   FileType
	Mode   fs.FileMode
	Data   []byte
	Target string
}

// Clone returns a copy of f whose fields the caller may set before
// adding it to an FS. The copy shares Data, which stays immutable.
func (f *File) Clone() *File {
	c := *f
	return &c
}

// Size returns the length of the file's data.
func (f *File) Size() int64 { return int64(len(f.Data)) }

// Whiteout naming conventions from the OCI image spec.
const (
	WhiteoutPrefix = ".wh."
	OpaqueWhiteout = ".wh..wh..opq"
)

// ErrNotExist is returned when a path is absent.
var ErrNotExist = errors.New("fsim: file does not exist")

// FS is an in-memory file system. The zero value is not usable; call New.
type FS struct {
	mu    sync.RWMutex
	files map[string]*File
}

// New returns an empty file system containing only the root directory.
func New() *FS {
	f := &FS{files: make(map[string]*File)}
	f.files["/"] = &File{Path: "/", Type: TypeDir, Mode: 0o755}
	return f
}

// Clean normalizes p to a clean absolute slash path.
func Clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// Len returns the number of entries, excluding the root directory.
func (f *FS) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.files) - 1
}

// Exists reports whether path p is present.
func (f *FS) Exists(p string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.files[Clean(p)]
	return ok
}

// Stat returns the entry at p. The returned File is a shared snapshot and
// must not be modified.
func (f *FS) Stat(p string) (*File, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.statLocked(p)
}

// statLocked is Stat for callers that hold f.mu.
func (f *FS) statLocked(p string) (*File, error) {
	file, ok := f.files[Clean(p)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, Clean(p))
	}
	return file, nil
}

// ReadFile returns the contents of the regular file at p. The returned
// slice is shared and must not be modified.
func (f *FS) ReadFile(p string) ([]byte, error) {
	file, err := f.Stat(p)
	if err != nil {
		return nil, err
	}
	if file.Type != TypeRegular {
		return nil, fmt.Errorf("fsim: %s is a %s, not a regular file", file.Path, file.Type)
	}
	return file.Data, nil
}

// mkParentsLocked creates any missing parent directories of p with mode 0755.
func (f *FS) mkParentsLocked(p string) {
	dir := path.Dir(p)
	for dir != "/" {
		if _, ok := f.files[dir]; !ok {
			f.files[dir] = &File{Path: dir, Type: TypeDir, Mode: 0o755}
		}
		dir = path.Dir(dir)
	}
}

// WriteFile creates or replaces a regular file at p, creating parents.
func (f *FS) WriteFile(p string, data []byte, mode fs.FileMode) {
	p = Clean(p)
	if p == "/" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mkParentsLocked(p)
	f.files[p] = &File{Path: p, Type: TypeRegular, Mode: mode.Perm(), Data: append([]byte(nil), data...)}
}

// MkdirAll creates directory p and any missing parents. It fails if p
// or any ancestor already exists as a non-directory, like os.MkdirAll
// (the previous behavior silently replaced such entries).
func (f *FS) MkdirAll(p string, mode fs.FileMode) error {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for q := p; q != "/"; q = path.Dir(q) {
		if existing, ok := f.files[q]; ok && existing.Type != TypeDir {
			return fmt.Errorf("fsim: mkdir %s: %s exists as a %s, not a directory", p, q, existing.Type)
		}
	}
	f.mkParentsLocked(p)
	if _, ok := f.files[p]; !ok {
		f.files[p] = &File{Path: p, Type: TypeDir, Mode: mode.Perm()}
	}
	return nil
}

// Symlink creates a symlink at p pointing at target, creating parents.
func (f *FS) Symlink(target, p string) {
	p = Clean(p)
	if p == "/" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mkParentsLocked(p)
	f.files[p] = &File{Path: p, Type: TypeSymlink, Mode: 0o777, Target: target}
}

// Add inserts a pre-built File, creating parents. The FS takes ownership
// of the File, which must not be modified afterwards. A File whose Path
// is already clean is inserted as is — it may be an entry other file
// systems share, so not even its own value is written back to it; one
// with an unclean Path is inserted as a copy under the clean path.
func (f *FS) Add(file *File) {
	if p := Clean(file.Path); p != file.Path {
		file = file.Clone()
		file.Path = p
	}
	if file.Path == "/" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mkParentsLocked(file.Path)
	f.files[file.Path] = file
}

// Remove deletes the entry at p. Removing a directory removes its entire
// subtree. Removing the root or a missing path returns an error.
func (f *FS) Remove(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.removeLocked(p)
}

// removeLocked is Remove for callers that hold f.mu.
func (f *FS) removeLocked(p string) error {
	p = Clean(p)
	if p == "/" {
		return errors.New("fsim: cannot remove root")
	}
	file, ok := f.files[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	delete(f.files, p)
	if file.Type == TypeDir {
		prefix := p + "/"
		for q := range f.files {
			if strings.HasPrefix(q, prefix) {
				delete(f.files, q)
			}
		}
	}
	return nil
}

// Paths returns every path in the FS (excluding root), sorted.
func (f *FS) Paths() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.pathsLocked()
}

// pathsLocked is Paths for callers that hold f.mu.
func (f *FS) pathsLocked() []string {
	out := make([]string, 0, len(f.files)-1)
	for p := range f.files {
		if p == "/" {
			continue
		}
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Walk visits every entry except the root in sorted path order. The
// callback runs without the FS lock held, so it may call back into the
// same FS; entries added or removed mid-walk may or may not be visited.
// If fn returns an error the walk stops and returns it.
func (f *FS) Walk(fn func(*File) error) error {
	for _, p := range f.Paths() {
		file, err := f.Stat(p)
		if err != nil {
			continue // removed mid-walk
		}
		if err := fn(file); err != nil {
			return err
		}
	}
	return nil
}

// Glob returns sorted paths whose base name matches the pattern (path.Match
// syntax) anywhere in the tree, or whose full path matches when the pattern
// contains a slash.
func (f *FS) Glob(pattern string) []string {
	var out []string
	full := strings.Contains(pattern, "/")
	for _, p := range f.Paths() {
		subject := path.Base(p)
		if full {
			subject = p
		}
		if ok, err := path.Match(pattern, subject); err == nil && ok {
			out = append(out, p)
		}
	}
	return out
}

// Clone returns an independent file system with the same entries. The
// entries themselves are shared (File is immutable), so the cost is one
// map of len(f) pointers whatever the files hold; mutating either side
// afterwards never shows on the other.
func (f *FS) Clone() *FS {
	f.mu.RLock()
	defer f.mu.RUnlock()
	c := &FS{files: make(map[string]*File, len(f.files))}
	for p, file := range f.files {
		c.files[p] = file
	}
	return c
}

// lockPair acquires the read locks of two file systems in address order,
// avoiding deadlock between concurrent Equal(a, b) and Equal(b, a).
func lockPair(a, b *FS) func() {
	if a == b {
		a.mu.RLock()
		return a.mu.RUnlock
	}
	first, second := a, b
	if uintptr(unsafe.Pointer(a)) > uintptr(unsafe.Pointer(b)) {
		first, second = b, a
	}
	first.mu.RLock()
	second.mu.RLock()
	return func() {
		second.mu.RUnlock()
		first.mu.RUnlock()
	}
}

// Equal reports whether two file systems hold identical entries.
func (f *FS) Equal(other *FS) bool {
	unlock := lockPair(f, other)
	defer unlock()
	if len(f.files) != len(other.files) {
		return false
	}
	for p, a := range f.files {
		b, ok := other.files[p]
		if !ok {
			return false
		}
		if a.Type != b.Type || a.Mode != b.Mode || a.Target != b.Target ||
			string(a.Data) != string(b.Data) {
			return false
		}
	}
	return true
}

// TotalSize returns the sum of regular file sizes in bytes.
func (f *FS) TotalSize() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var n int64
	for _, file := range f.files {
		n += file.Size()
	}
	return n
}

// ResolveSymlink follows symlinks at p up to 40 hops and returns the final
// path. Relative targets are resolved against the link's directory.
func (f *FS) ResolveSymlink(p string) (string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p = Clean(p)
	for i := 0; i < 40; i++ {
		file, ok := f.files[p]
		if !ok {
			return "", fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		if file.Type != TypeSymlink {
			return p, nil
		}
		if path.IsAbs(file.Target) {
			p = Clean(file.Target)
		} else {
			p = Clean(path.Join(path.Dir(p), file.Target))
		}
	}
	return "", fmt.Errorf("fsim: too many symlink hops resolving %s", p)
}

// isWhiteout reports whether base is a whiteout marker and, if so, whether
// it is the opaque-directory marker.
func isWhiteout(base string) (whiteout, opaque bool) {
	if base == OpaqueWhiteout {
		return true, true
	}
	return strings.HasPrefix(base, WhiteoutPrefix), false
}

// Apply layers `layer` on top of base and returns the combined state,
// honouring OCI whiteout semantics: an entry named ".wh.x" deletes x from
// the lower state; ".wh..wh..opq" in a directory hides all lower entries of
// that directory. Neither input is modified; the result shares their
// entries.
func Apply(base, layer *FS) *FS {
	out := base.Clone()
	out.applyLayer(layer)
	return out
}

// applyLayer folds layer into f in place, with Apply's semantics.
func (f *FS) applyLayer(layer *FS) {
	// Opaque markers first: they clear lower content before this layer's
	// own entries for the directory are added.
	var adds []*File
	for _, p := range layer.Paths() {
		file, err := layer.Stat(p)
		if err != nil {
			continue
		}
		baseName := path.Base(p)
		wh, opaque := isWhiteout(baseName)
		switch {
		case opaque:
			dir := path.Dir(p)
			if d, err := f.Stat(dir); err == nil && d.Type == TypeDir {
				prefix := dir + "/"
				if dir == "/" {
					prefix = "/"
				}
				f.mu.Lock()
				for q := range f.files {
					if q != dir && strings.HasPrefix(q, prefix) {
						delete(f.files, q)
					}
				}
				f.mu.Unlock()
			}
		case wh:
			target := path.Join(path.Dir(p), strings.TrimPrefix(baseName, WhiteoutPrefix))
			// Whiteout of a missing path is a no-op by the OCI spec, and
			// Remove on an in-memory FS has no other failure mode here.
			//comtainer:allow errpropagate -- whiteout of a missing path is a spec-mandated no-op
			_ = f.Remove(target)
		default:
			adds = append(adds, file)
		}
	}
	for _, file := range adds {
		// Replacing a directory with a non-directory removes the subtree.
		if existing, err := f.Stat(file.Path); err == nil && existing.Type == TypeDir && file.Type != TypeDir {
			//comtainer:allow errpropagate -- Stat just proved the path exists; Remove cannot fail
			_ = f.Remove(file.Path)
		}
		f.Add(file)
	}
}

// ApplyAll applies layers in order on top of an empty file system: the
// left fold of Apply, computed in one accumulator.
func ApplyAll(layers []*FS) *FS {
	state := New()
	for _, l := range layers {
		state.applyLayer(l)
	}
	return state
}

// Diff computes a layer that, applied to base, reproduces derived:
// Apply(base, Diff(base, derived)).Equal(derived) holds for states whose
// paths do not themselves use the whiteout naming convention. Deletions
// become whiteout entries; added and changed entries are derived's own,
// shared.
func Diff(base, derived *FS) *FS {
	unlock := lockPair(base, derived)
	layer := New()
	// Additions and modifications.
	var adds []*File
	var whiteouts []string
	for p, d := range derived.files {
		if p == "/" {
			continue
		}
		b, ok := base.files[p]
		// b == d is the common case after a Clone: the entry was never
		// replaced, so its bytes need no comparing.
		if ok && (b == d || b.Type == d.Type && b.Mode == d.Mode && b.Target == d.Target &&
			string(b.Data) == string(d.Data)) {
			continue
		}
		adds = append(adds, d)
	}
	// Deletions: entries in base absent from derived. Skip entries whose
	// ancestor directory is itself deleted (a single whiteout suffices).
	for p := range base.files {
		if p == "/" {
			continue
		}
		if _, ok := derived.files[p]; ok {
			continue
		}
		parent := path.Dir(p)
		covered := false
		for parent != "/" {
			if _, inBase := base.files[parent]; inBase {
				if _, inDerived := derived.files[parent]; !inDerived {
					covered = true
					break
				}
			}
			parent = path.Dir(parent)
		}
		if covered {
			continue
		}
		whiteouts = append(whiteouts, path.Join(path.Dir(p), WhiteoutPrefix+path.Base(p)))
	}
	unlock()
	for _, a := range adds {
		layer.Add(a)
	}
	for _, wh := range whiteouts {
		layer.WriteFile(wh, nil, 0o000)
	}
	return layer
}
