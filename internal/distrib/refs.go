package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"comtainer/internal/faultinject"
	"comtainer/internal/oci"
)

// TagStore maps repository-qualified tags ("user/app" + "v1") to
// manifest descriptors — the mutable half of a registry, next to the
// immutable blob store.
type TagStore interface {
	// Resolve returns the descriptor tagged name:tag.
	Resolve(name, tag string) (oci.Descriptor, bool)
	// Set records desc under name:tag, replacing any previous mapping.
	Set(name, tag string, desc oci.Descriptor) error
	// Delete removes the name:tag mapping. Absent refs are not an error.
	Delete(name, tag string) error
	// Tags returns the sorted tags of repository name.
	Tags(name string) []string
	// All returns every known "name:tag" key with its descriptor.
	All() map[string]oci.Descriptor
}

// MemTags is an in-memory TagStore.
type MemTags struct {
	mu sync.RWMutex
	m  map[string]oci.Descriptor
}

// NewMemTags returns an empty in-memory tag store.
func NewMemTags() *MemTags {
	return &MemTags{m: make(map[string]oci.Descriptor)}
}

// Resolve returns the descriptor tagged name:tag.
func (t *MemTags) Resolve(name, tag string) (oci.Descriptor, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.m[name+":"+tag]
	return d, ok
}

// Set records desc under name:tag.
func (t *MemTags) Set(name, tag string, desc oci.Descriptor) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[name+":"+tag] = desc
	return nil
}

// Delete removes the name:tag mapping.
func (t *MemTags) Delete(name, tag string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, name+":"+tag)
	return nil
}

// apply sets key to desc (nil: deletes it); the caller holds mu or owns t.
func (t *MemTags) apply(key string, desc *oci.Descriptor) {
	if desc == nil {
		delete(t.m, key)
	} else {
		t.m[key] = *desc
	}
}

// Tags returns the sorted tags of repository name. A key is name, a
// colon, then the tag; a repository name holds no colon (OCI names
// cannot) but a tag may, so the tag is everything after name+":".
func (t *MemTags) Tags(name string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var tags []string
	for k := range t.m {
		if tag, ok := strings.CutPrefix(k, name+":"); ok {
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	return tags
}

// All returns a copy of every tag mapping.
func (t *MemTags) All() map[string]oci.Descriptor {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]oci.Descriptor, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

// DiskTags is a TagStore persisted as one append-only log, tags.log: a
// Set or Delete is a JSON line, synced, then applied to the MemTags that
// serves reads, which is the log replayed at open. An open holds the
// directory's lock until Close: a directory has one writer.
type DiskTags struct {
	MemTags
	dir  string
	fs   faultinject.FS
	lock *os.File // the directory, flock'ed
	log  *faultinject.AppendFile
	at   map[string]int64 // offset of each key's last applied line; guarded by mu
}

// tagRecord is one line of the tag log: Key ("name:tag") set to Desc, or deleted.
type tagRecord struct {
	Key  string          `json:"key"`
	Desc *oci.Descriptor `json:"desc,omitempty"`
}

// ErrDirInUse: another open holds the directory's lock — a registry
// serving it, or a save into it.
var ErrDirInUse = errors.New("distrib: the directory is open for writing elsewhere (a registry serving it, or a save into it)")

// NewDiskTags opens (creating if needed) the tag store under dir.
func NewDiskTags(dir string) (*DiskTags, error) {
	return NewDiskTagsFS(dir, faultinject.OS())
}

// NewDiskTagsFS is NewDiskTags through fsys, for chaos tests. The open
// first takes dir's exclusive lock, or fails with ErrDirInUse. Then it
// replays tags.log (faultinject.OpenAppend) and rewrites it as the live
// map if it holds lines the map no longer needs, or if it imported the
// tags of an older store: refs/ (one file per path-escaped key), or,
// with no tags.log, index.json's. Then it writes the index.json view.
func NewDiskTagsFS(dir string, fsys faultinject.FS) (*DiskTags, error) {
	if err := fsys.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("distrib: creating tag store dir: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	t := &DiskTags{MemTags: MemTags{m: make(map[string]oci.Descriptor)}, dir: dir, fs: fsys, lock: lock, at: make(map[string]int64)}
	if err := t.open(); err != nil {
		lock.Close()
		return nil, err
	}
	return t, nil
}

// lockDir takes the exclusive flock on directory dir that its one
// writer holds until it closes the returned file (or its process ends).
// A load reads without it: blobs and tag-log lines appear whole, and a
// rewritten log is renamed into place.
func lockDir(dir string) (*os.File, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("distrib: opening %s to lock it: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrDirInUse, dir)
		}
		return nil, fmt.Errorf("distrib: locking %s: %w", dir, err)
	}
	return f, nil
}

// open imports, replays and, if need be, rewrites the log, then writes
// the view; t holds the lock.
func (t *DiskTags) open() error {
	refs := filepath.Join(t.dir, "refs")
	files, err := os.ReadDir(refs)
	legacy := err == nil
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("distrib: reading refs dir: %w", err)
	}
	for _, f := range files {
		// Other files are the temp files of writes a crash cut short.
		if name, ok := strings.CutSuffix(f.Name(), ".json"); ok {
			key, err := url.PathUnescape(name)
			var b []byte
			if err == nil {
				b, err = os.ReadFile(filepath.Join(refs, f.Name()))
			}
			var desc oci.Descriptor
			if err == nil {
				err = json.Unmarshal(b, &desc)
			}
			if err != nil {
				return fmt.Errorf("distrib: importing ref %s: %w", f.Name(), err)
			}
			t.m[key] = desc
		}
	}
	path, lines := filepath.Join(t.dir, logFile), 0
	if _, err := t.fs.Stat(path); os.IsNotExist(err) {
		found, err := t.importIndex(t.dir)
		if err != nil {
			return fmt.Errorf("distrib: importing %s: %w", indexFile, err)
		}
		legacy = legacy || found
	}
	t.log, err = faultinject.OpenAppend(t.fs, path, func(line []byte) error {
		err := t.replay(line)
		if err == nil {
			lines++
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("distrib: opening tag log: %w", err)
	}
	if legacy || lines > len(t.m) {
		err = t.rewrite(t.fs, path)
	}
	if err == nil && legacy {
		err = t.fs.RemoveAll(refs)
	}
	if err == nil {
		err = t.writeView()
	}
	if err != nil {
		t.log.Close()
		return fmt.Errorf("distrib: rewriting tag log or its view: %w", err)
	}
	return nil
}

// replay applies one line of a tag log; the caller owns t.
func (t *MemTags) replay(line []byte) error {
	var rec tagRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	t.apply(rec.Key, rec.Desc)
	return nil
}

// importIndex sets a LayoutRepository tag for each manifest of dir's
// index.json with a ref.name, and reports whether there was one; the
// caller owns t.
func (t *MemTags) importIndex(dir string) (bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, indexFile))
	if os.IsNotExist(err) {
		return false, nil
	}
	var idx oci.Index
	if err == nil {
		err = json.Unmarshal(b, &idx)
	}
	for _, desc := range idx.Manifests {
		if tag, ok := desc.Annotations[oci.AnnotationRefName]; ok {
			t.m[LayoutRepository+":"+tag] = bare(desc)
		}
	}
	return true, err
}

// writeView writes index.json, the tag log's view: an OCI index of
// LayoutRepository's tags, each manifest's ref.name its tag, unless the
// file already says that.
func (t *DiskTags) writeView() error {
	idx := oci.Index{SchemaVersion: 2, MediaType: oci.MediaTypeIndex, Manifests: []oci.Descriptor{}}
	for _, tag := range t.Tags(LayoutRepository) {
		desc, _ := t.Resolve(LayoutRepository, tag)
		desc.Annotations = map[string]string{oci.AnnotationRefName: tag}
		idx.Manifests = append(idx.Manifests, desc)
	}
	b, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(t.dir, indexFile)
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, b) {
		return nil
	}
	return replaceFile(t.fs, filepath.Join(t.dir, "tmp"), path, b)
}

// rewrite replaces the log with the live map, one line per tag, by a
// synced tags.log.new renamed over it; a crash leaves the old log.
func (t *DiskTags) rewrite(fsys faultinject.FS, path string) error {
	var live []byte
	for key, desc := range t.m {
		b, err := json.Marshal(tagRecord{Key: key, Desc: &desc})
		if err != nil {
			return err
		}
		live = append(append(live, b...), '\n')
	}
	next := path + ".new"
	if err := fsys.Remove(next); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	log, err := faultinject.OpenAppend(fsys, next, func([]byte) error { return errors.New("stale") })
	if err != nil {
		return err
	}
	if _, err = log.Append(live); err == nil {
		err = fsys.Rename(next, path)
	}
	if err == nil {
		err = faultinject.SyncDir(fsys, filepath.Dir(path))
	}
	if err != nil {
		log.Close()
		return err
	}
	t.log.Close()
	t.log = log
	return nil
}

// Close releases the log and the directory's lock; writes fail
// afterwards, reads go on.
func (t *DiskTags) Close() error { return errors.Join(t.log.Close(), t.lock.Close()) }

// Set records desc under name:tag once its log line is durable.
func (t *DiskTags) Set(name, tag string, desc oci.Descriptor) error {
	return t.write(name+":"+tag, &desc)
}

// Delete removes the name:tag mapping once its log line is durable.
func (t *DiskTags) Delete(name, tag string) error {
	return t.write(name+":"+tag, nil)
}

// write appends the line that sets key to desc (nil: deletes it), then,
// unless a later line of the key was applied first, applies it.
func (t *DiskTags) write(key string, desc *oci.Descriptor) error {
	b, err := json.Marshal(tagRecord{Key: key, Desc: desc})
	if err != nil {
		return fmt.Errorf("distrib: encoding tag %s: %w", key, err)
	}
	off, err := t.log.Append(append(b, '\n'))
	if err != nil {
		return fmt.Errorf("distrib: logging tag %s: %w", key, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if last, ok := t.at[key]; ok && last > off {
		return nil
	}
	t.at[key] = off
	t.apply(key, desc)
	return nil
}
