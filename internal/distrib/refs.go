package distrib

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

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

// Tags returns the sorted tags of repository name.
func (t *MemTags) Tags(name string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return tagsOf(t.m, name)
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

// DiskTags is a TagStore persisted one file per reference under
// <root>/refs/, each committed by faultinject.Commit's protocol so a
// crash never leaves a torn descriptor. The full map is kept in memory
// and written through.
type DiskTags struct {
	root string
	fs   faultinject.FS
	mu   sync.RWMutex
	m    map[string]oci.Descriptor
}

// refTempPrefix starts the name of a Set's temp file, which unlike a
// committed ref's (see refFile) does not end in ".json".
const refTempPrefix = "ref-"

// NewDiskTags opens (creating if needed) the tag store under dir,
// loads every persisted reference and removes the temp files a Set
// interrupted by a crash left behind.
func NewDiskTags(dir string) (*DiskTags, error) {
	return NewDiskTagsFS(dir, faultinject.OS())
}

// NewDiskTagsFS is NewDiskTags writing through fsys — the hook chaos
// tests use to kill a Set between its write and its rename.
func NewDiskTagsFS(dir string, fsys faultinject.FS) (*DiskTags, error) {
	t := &DiskTags{root: filepath.Join(dir, "refs"), fs: fsys, m: make(map[string]oci.Descriptor)}
	if err := fsys.MkdirAll(t.root, 0o755); err != nil {
		return nil, fmt.Errorf("distrib: creating refs dir: %w", err)
	}
	entries, err := os.ReadDir(t.root)
	if err != nil {
		return nil, fmt.Errorf("distrib: reading refs dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if !strings.HasSuffix(e.Name(), ".json") {
			if strings.HasPrefix(e.Name(), refTempPrefix) {
				if err := fsys.Remove(filepath.Join(t.root, e.Name())); err != nil {
					return nil, fmt.Errorf("distrib: sweeping temp %s: %w", e.Name(), err)
				}
			}
			continue
		}
		key, err := url.PathUnescape(strings.TrimSuffix(e.Name(), ".json"))
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(t.root, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("distrib: reading ref %s: %w", key, err)
		}
		var desc oci.Descriptor
		if err := json.Unmarshal(b, &desc); err != nil {
			return nil, fmt.Errorf("distrib: decoding ref %s: %w", key, err)
		}
		t.m[key] = desc
	}
	return t, nil
}

// refFile returns the on-disk file of a "name:tag" key. PathEscape
// keeps slash-bearing repository names inside one flat directory.
func (t *DiskTags) refFile(key string) string {
	return filepath.Join(t.root, url.PathEscape(key)+".json")
}

// Resolve returns the descriptor tagged name:tag.
func (t *DiskTags) Resolve(name, tag string) (oci.Descriptor, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.m[name+":"+tag]
	return d, ok
}

// Set records desc under name:tag and persists it atomically. The
// temp file is prepared outside the lock; only the commit rename and
// the write-through map update run under it, so the on-disk ref and
// the in-memory map can never disagree about which Set won.
func (t *DiskTags) Set(name, tag string, desc oci.Descriptor) error {
	b, err := json.Marshal(desc)
	if err != nil {
		return fmt.Errorf("distrib: encoding ref: %w", err)
	}
	key := name + ":" + tag
	tmp, err := faultinject.WriteTemp(t.fs, t.refFile(key), refTempPrefix, b, 0)
	if err != nil {
		return fmt.Errorf("distrib: writing ref: %w", err)
	}
	t.mu.Lock()
	//comtainer:allow lockio -- rename must commit atomically with the map update
	err = t.fs.Rename(tmp, t.refFile(key))
	if err == nil {
		t.m[key] = desc
	}
	t.mu.Unlock()
	if err != nil {
		t.fs.Remove(tmp)
		return fmt.Errorf("distrib: committing ref %s: %w", key, err)
	}
	return nil
}

// Delete removes the name:tag mapping and its on-disk ref file. The
// remove runs under the lock for the same reason Set's rename does:
// the file and the map must agree about whether the ref exists.
func (t *DiskTags) Delete(name, tag string) error {
	key := name + ":" + tag
	t.mu.Lock()
	//comtainer:allow lockio -- remove must commit atomically with the map update
	err := t.fs.Remove(t.refFile(key))
	if err == nil || os.IsNotExist(err) {
		delete(t.m, key)
		err = nil
	}
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("distrib: deleting ref %s: %w", key, err)
	}
	return nil
}

// Tags returns the sorted tags of repository name.
func (t *DiskTags) Tags(name string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return tagsOf(t.m, name)
}

// All returns a copy of every tag mapping.
func (t *DiskTags) All() map[string]oci.Descriptor {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]oci.Descriptor, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

// tagsOf extracts the sorted tags of one repository from a key map.
// The tag is everything after the last colon, so repository names may
// not contain colons (OCI names cannot).
func tagsOf(m map[string]oci.Descriptor, name string) []string {
	var tags []string
	for k := range m {
		i := strings.LastIndex(k, ":")
		if i >= 0 && k[:i] == name {
			tags = append(tags, k[i+1:])
		}
	}
	sort.Strings(tags)
	return tags
}
