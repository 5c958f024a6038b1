package oci

import (
	"fmt"
	"sort"
	"sync"
)

// Repository couples a blob store with its tags — the in-memory
// equivalent of an image directory (distrib.LoadLayout reads one into
// it). It is what registries serve and what the build tools operate on.
// Its methods are safe for concurrent use: the tags are read and
// written under mu.
type Repository struct {
	Store *Store

	mu   sync.RWMutex
	tags map[string]Descriptor
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{Store: NewStore(), tags: make(map[string]Descriptor)}
}

// Tag records desc under tag, replacing what tag named before.
func (r *Repository) Tag(tag string, desc Descriptor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tags[tag] = desc
}

// Tags returns the repository's tags, sorted.
func (r *Repository) Tags() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	tags := make([]string, 0, len(r.tags))
	for tag := range r.tags {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}

// Resolve returns the manifest descriptor tagged tag.
func (r *Repository) Resolve(tag string) (Descriptor, error) {
	r.mu.RLock()
	d, ok := r.tags[tag]
	r.mu.RUnlock()
	if !ok {
		return Descriptor{}, fmt.Errorf("oci: tag %q not found (have %v)", tag, r.Tags())
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
// — the manifest, every blob it references and, for a manifest list,
// every member image in turn — and tags it. The two stores then share
// each blob's bytes. A move between two stores of one process crosses no
// trust boundary: src checked every blob against its key when it took it
// in, and its bytes never change, so nothing is hashed again.
func (r *Repository) PushImage(src *Store, desc Descriptor, tag string) error {
	err := Walk(desc, src.Get, func(d Descriptor, doc []byte, blobs, _ []Descriptor) error {
		for _, b := range blobs {
			content, err := src.Get(b.Digest)
			if err != nil {
				return fmt.Errorf("oci: copying blob of %s: %w", d.Digest.Short(), err)
			}
			r.Store.adopt(b.Digest, content)
		}
		r.Store.adopt(d.Digest, doc)
		return nil
	})
	if err != nil {
		return err
	}
	r.Tag(tag, desc)
	return nil
}
