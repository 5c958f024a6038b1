package oci

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// layoutMarker is the content of the oci-layout marker file.
const layoutMarker = `{"imageLayoutVersion": "1.0.0"}`

// Repository couples a blob store with a tagged index — the in-memory
// equivalent of an OCI layout directory. It is what registries serve and
// what the build tools operate on. Its methods are safe for concurrent
// use: the index is read and written under mu, by Tag, Tags, Resolve and
// the layout code.
type Repository struct {
	Store *Store

	mu    sync.RWMutex
	index Index
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		Store: NewStore(),
		index: Index{SchemaVersion: 2, MediaType: MediaTypeIndex},
	}
}

// Tag records desc under tag in the repository index.
func (r *Repository) Tag(tag string, desc Descriptor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.index.SetTag(tag, desc)
}

// Tags returns the repository's tags, sorted.
func (r *Repository) Tags() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.index.Tags()
}

// Resolve returns the manifest descriptor tagged tag.
func (r *Repository) Resolve(tag string) (Descriptor, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.index.FindByTag(tag)
	if !ok {
		return Descriptor{}, fmt.Errorf("oci: tag %q not found (have %v)", tag, r.index.Tags())
	}
	return d, nil
}

// LoadByTag loads the image tagged tag.
func (r *Repository) LoadByTag(tag string) (*Image, error) {
	desc, err := r.Resolve(tag)
	if err != nil {
		return nil, err
	}
	return LoadImage(r.Store, desc)
}

// PushImage copies the image named by desc from src into the repository
// and tags it.
func (r *Repository) PushImage(src *Store, desc Descriptor, tag string) error {
	if err := r.Store.CopyImage(src, desc); err != nil {
		return err
	}
	r.Tag(tag, desc)
	return nil
}

// tempPrefix starts the name of a file SaveLayout is still writing. It
// sits beside its target until the rename; LoadLayout skips it. A
// digest-named blob can never start with a dot.
const tempPrefix = ".tmp-"

// SaveLayout writes the repository as an OCI layout directory: an
// oci-layout marker, index.json, and blobs/sha256/<hex> files. Every
// file is committed atomically (temp + rename): blobs because they are
// content-addressed and must never exist torn, index.json because it
// is the root a reader trusts. A blob file therefore only ever appears
// whole, and one that is already there with the blob's size — what a
// load, work, save-back cycle finds for every blob it loaded — is not
// written again.
func (r *Repository) SaveLayout(dir string) error {
	return r.SaveLayoutFS(dir, faultinject.OS())
}

// SaveLayoutFS is SaveLayout writing through fsys — the hook chaos
// tests use to crash a save at an arbitrary write and verify the
// layout on disk is either absent or loadable, never torn. index.json
// is written last, so a reader only sees the index once every blob it
// references has committed.
func (r *Repository) SaveLayoutFS(dir string, fsys faultinject.FS) error {
	blobDir := filepath.Join(dir, "blobs", "sha256")
	if err := fsys.MkdirAll(blobDir, 0o755); err != nil {
		return fmt.Errorf("oci: creating layout dir: %w", err)
	}
	if err := faultinject.Commit(fsys, filepath.Join(dir, "oci-layout"), tempPrefix, []byte(layoutMarker), 0o644); err != nil {
		return fmt.Errorf("oci: writing layout marker: %w", err)
	}
	for _, d := range r.Store.Digests() {
		b, err := r.Store.Get(d)
		if err != nil {
			return err
		}
		path := filepath.Join(blobDir, d.Hex())
		if fi, err := fsys.Stat(path); err == nil && fi.Mode().IsRegular() && fi.Size() == int64(len(b)) {
			continue
		}
		if err := faultinject.Commit(fsys, path, tempPrefix, b, 0o644); err != nil {
			return fmt.Errorf("oci: writing blob %s: %w", d.Short(), err)
		}
	}
	r.mu.RLock()
	idx, err := json.MarshalIndent(r.index, "", "  ")
	r.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("oci: encoding index: %w", err)
	}
	if err := faultinject.Commit(fsys, filepath.Join(dir, "index.json"), tempPrefix, idx, 0o644); err != nil {
		return fmt.Errorf("oci: writing index.json: %w", err)
	}
	return nil
}

// LoadLayout reads an OCI layout directory into a repository.
func LoadLayout(dir string) (*Repository, error) {
	marker, err := os.ReadFile(filepath.Join(dir, "oci-layout"))
	if err != nil {
		return nil, fmt.Errorf("oci: %s is not an OCI layout: %w", dir, err)
	}
	var mv struct {
		ImageLayoutVersion string `json:"imageLayoutVersion"`
	}
	if err := json.Unmarshal(marker, &mv); err != nil || mv.ImageLayoutVersion == "" {
		return nil, fmt.Errorf("oci: %s has an invalid oci-layout marker", dir)
	}
	r := NewRepository()
	idxBytes, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, fmt.Errorf("oci: reading index.json: %w", err)
	}
	r.mu.Lock() // r is not shared yet; the index is only ever touched under its lock
	err = json.Unmarshal(idxBytes, &r.index)
	r.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("oci: decoding index.json: %w", err)
	}
	blobDir := filepath.Join(dir, "blobs", "sha256")
	entries, err := os.ReadDir(blobDir)
	if err != nil {
		if os.IsNotExist(err) {
			return r, nil
		}
		return nil, fmt.Errorf("oci: reading blob dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), tempPrefix) {
			continue // a crashed save's leftover names no blob
		}
		b, err := os.ReadFile(filepath.Join(blobDir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("oci: reading blob %s: %w", e.Name(), err)
		}
		want, err := digest.FromHex(e.Name())
		if err != nil {
			return nil, fmt.Errorf("oci: blob file %q is not digest-named: %w", e.Name(), err)
		}
		if err := r.Store.PutVerified(b, want); err != nil {
			return nil, fmt.Errorf("oci: corrupt blob %s: %w", e.Name(), err)
		}
	}
	return r, nil
}
