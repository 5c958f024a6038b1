package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
	"comtainer/internal/oci"
)

// An image directory is what `comtainer build -o DIR` writes and
// `comtainer-registry -data DIR` serves: an OCI image layout whose blobs
// are a DiskStore and whose tags are a DiskTags, index.json their view.
// It is one repository, LayoutRepository, which a registry over the
// directory serves at /v2/layout/. It has one writer at a time, which
// holds the directory's lock (DiskTags): a registry serving it, or a
// save into it. A load takes no lock and writes nothing.
const (
	LayoutRepository = "layout"

	markerFile   = "oci-layout"
	layoutMarker = `{"imageLayoutVersion": "1.0.0"}`
	indexFile    = "index.json"
	logFile      = "tags.log"
)

// LoadLayout reads the image directory dir, which must hold a valid
// oci-layout marker, into a repository: LayoutRepository's tags and
// every blob. A blob that does not hash to its name fails the load.
//
// A load writes nothing, so it works on a read-only directory and
// beside a registry serving dir. It reads the tags from tags.log (a
// torn last line is skipped) or, in a directory that has none (a layout
// another tool wrote), from index.json; the first writer's open imports
// those into a log. It reads blobs at blobs/sha256/<hex> only: a
// directory whose blobs are still in an older fan-out has no marker
// until a writer's open has moved them.
func LoadLayout(dir string) (*oci.Repository, error) {
	return LoadLayoutFS(dir, faultinject.OS())
}

// LoadLayoutFS is LoadLayout through fsys.
func LoadLayoutFS(dir string, fsys faultinject.FS) (*oci.Repository, error) {
	b, err := os.ReadFile(filepath.Join(dir, markerFile))
	if err != nil {
		return nil, fmt.Errorf("distrib: %s is not an OCI layout: %w", dir, err)
	}
	var marker struct {
		ImageLayoutVersion string `json:"imageLayoutVersion"`
	}
	if err := json.Unmarshal(b, &marker); err != nil || marker.ImageLayoutVersion == "" {
		return nil, fmt.Errorf("distrib: %s has an invalid %s marker", dir, markerFile)
	}
	tags := NewMemTags()
	err = faultinject.ReadLog(fsys, filepath.Join(dir, logFile), tags.replay)
	if errors.Is(err, fs.ErrNotExist) {
		_, err = tags.importIndex(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("distrib: reading the tags of %s: %w", dir, err)
	}
	repo := oci.NewRepository()
	for _, tag := range tags.Tags(LayoutRepository) {
		desc, _ := tags.Resolve(LayoutRepository, tag)
		repo.Tag(tag, desc)
	}
	blobs := &DiskStore{root: dir, fs: fsys}
	for _, d := range blobs.Digests() {
		if err := blobs.copyTo(repo.Store, d); err != nil {
			return nil, fmt.Errorf("distrib: blob %s in %s: %w", d, dir, err)
		}
	}
	return repo, nil
}

// copyTo reads blob d into dst, whose Ingest hashes it: its one check.
func (s *DiskStore) copyTo(dst *oci.Store, d digest.Digest) error {
	f, err := faultinject.Open(s.fs, s.blobPath(d))
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := s.fs.Stat(s.blobPath(d))
	if err == nil {
		_, _, err = dst.Ingest(oci.NewSizedReader(f, fi.Size()), d)
	}
	return err
}

// SaveLayout writes repo into the image directory dir, creating it if
// needed: the blobs it lacks, then each new or moved tag, then the
// index.json view, then the oci-layout marker if it is missing. Like a
// push, it removes no tag. A blob is committed before a tag names it,
// and a tag is one synced line, so a save cut short leaves every tag on
// its old image or its new one; a first save cut short leaves no marker,
// so no layout.
func SaveLayout(repo *oci.Repository, dir string) error {
	return SaveLayoutFS(repo, dir, faultinject.OS())
}

// SaveLayoutFS is SaveLayout through fsys. It opens the tags first,
// which takes the directory's lock, then the blob store, with no Repair.
func SaveLayoutFS(repo *oci.Repository, dir string, fsys faultinject.FS) error {
	tags, err := NewDiskTagsFS(dir, fsys)
	if err != nil {
		return err
	}
	blobs, err := openDiskStore(dir, fsys)
	if err == nil {
		err = save(repo, blobs, tags)
	}
	return errors.Join(err, tags.Close())
}

func save(repo *oci.Repository, blobs *DiskStore, tags *DiskTags) error {
	for _, d := range repo.Store.Digests() {
		if blobs.Has(d) {
			continue
		}
		b, err := repo.Store.Get(d)
		if err == nil {
			_, _, err = blobs.Ingest(bytes.NewReader(b), d)
		}
		if err != nil {
			return fmt.Errorf("distrib: saving blob %s: %w", d.Short(), err)
		}
	}
	for _, tag := range repo.Tags() {
		desc, err := repo.Resolve(tag)
		if err != nil {
			return err
		}
		desc = bare(desc)
		if old, ok := tags.Resolve(LayoutRepository, tag); !ok || !reflect.DeepEqual(old, desc) {
			if err := tags.Set(LayoutRepository, tag, desc); err != nil {
				return err
			}
		}
	}
	if err := tags.writeView(); err != nil {
		return err
	}
	return blobs.writeMarker()
}

// bare returns what a registry keeps of a tagged manifest's descriptor.
func bare(d oci.Descriptor) oci.Descriptor {
	return oci.Descriptor{MediaType: d.MediaType, Digest: d.Digest, Size: d.Size}
}
