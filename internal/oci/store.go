package oci

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/tarfs"
)

// ErrBlobNotFound reports a missing blob.
var ErrBlobNotFound = errors.New("oci: blob not found")

// Store is a thread-safe content-addressed blob store.
type Store struct {
	mu    sync.RWMutex
	blobs map[digest.Digest][]byte
}

// NewStore returns an empty blob store.
func NewStore() *Store {
	return &Store{blobs: make(map[digest.Digest][]byte)}
}

// Put stores content and returns its digest. Storing the same content twice
// is a no-op.
func (s *Store) Put(content []byte) digest.Digest {
	d := digest.FromBytes(content)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[d]; !ok {
		s.blobs[d] = append([]byte(nil), content...)
	}
	return d
}

// PutVerified stores content that must hash to want.
func (s *Store) PutVerified(content []byte, want digest.Digest) error {
	if got := digest.FromBytes(content); got != want {
		return fmt.Errorf("oci: digest mismatch: content is %s, want %s", got, want)
	}
	s.Put(content)
	return nil
}

// Get returns the content of the blob with digest d.
func (s *Store) Get(d digest.Digest) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[d]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, d)
	}
	return b, nil
}

// Open returns a streaming reader over blob d plus its size — the
// distrib.BlobSource read side. The returned reader sees a stable
// snapshot of the blob.
func (s *Store) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	b, err := s.Get(d)
	if err != nil {
		return nil, 0, err
	}
	return io.NopCloser(bytes.NewReader(b)), int64(len(b)), nil
}

// Ingest consumes r into the store — the distrib.BlobSink write side.
// If want is non-empty the content must hash to it.
func (s *Store) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return "", 0, fmt.Errorf("oci: ingesting blob: %w", err)
	}
	if want != "" {
		if err := s.PutVerified(b, want); err != nil {
			return "", 0, err
		}
		return want, int64(len(b)), nil
	}
	return s.Put(b), int64(len(b)), nil
}

// Delete removes blob d. Deleting an absent blob is not an error.
func (s *Store) Delete(d digest.Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, d)
	return nil
}

// Has reports whether the store holds blob d.
func (s *Store) Has(d digest.Digest) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blobs[d]
	return ok
}

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// Digests returns the sorted digests of every stored blob.
func (s *Store) Digests() []digest.Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]digest.Digest, 0, len(s.blobs))
	for d := range s.blobs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalSize returns the combined size of all blobs in bytes.
func (s *Store) TotalSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.blobs {
		n += int64(len(b))
	}
	return n
}

// CopyImage copies the image named by desc from src into s: the
// manifest, every blob it references and, for a manifest list, every
// member image in turn.
func (s *Store) CopyImage(src *Store, desc Descriptor) error {
	doc, err := src.Get(desc.Digest)
	if err != nil {
		return fmt.Errorf("oci: copying manifest: %w", err)
	}
	blobs, children, err := References(doc)
	if err != nil {
		return err
	}
	for _, b := range blobs {
		content, err := src.Get(b.Digest)
		if err != nil {
			return fmt.Errorf("oci: copying blob of %s: %w", desc.Digest.Short(), err)
		}
		s.Put(content)
	}
	for _, child := range children {
		if err := s.CopyImage(src, child); err != nil {
			return err
		}
	}
	s.Put(doc)
	return nil
}

// PutJSON marshals v canonically, stores it, and returns a descriptor with
// the given media type.
func PutJSON(s *Store, v any, mediaType string) (Descriptor, error) {
	b, err := canonicalJSON(v)
	if err != nil {
		return Descriptor{}, err
	}
	d := s.Put(b)
	return Descriptor{MediaType: mediaType, Digest: d, Size: int64(len(b))}, nil
}

// GetJSON loads blob d from s and unmarshals it into v.
func GetJSON(s *Store, d digest.Digest, v any) error {
	b, err := s.Get(d)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("oci: decoding blob %s into %T: %w", d.Short(), v, err)
	}
	return nil
}

// LoadManifest reads and decodes the manifest blob d.
func LoadManifest(s *Store, d digest.Digest) (*Manifest, error) {
	var m Manifest
	if err := GetJSON(s, d, &m); err != nil {
		return nil, fmt.Errorf("oci: loading manifest: %w", err)
	}
	return &m, nil
}

// LoadConfig reads and decodes the image config blob d.
func LoadConfig(s *Store, d digest.Digest) (*ImageConfig, error) {
	var c ImageConfig
	if err := GetJSON(s, d, &c); err != nil {
		return nil, fmt.Errorf("oci: loading config: %w", err)
	}
	return &c, nil
}

// Image is a loaded image: its manifest, config, and the store holding its
// blobs.
type Image struct {
	Store    *Store
	Desc     Descriptor
	Manifest *Manifest
	Config   *ImageConfig
}

// LoadImage loads the image whose manifest descriptor is desc.
func LoadImage(s *Store, desc Descriptor) (*Image, error) {
	m, err := LoadManifest(s, desc.Digest)
	if err != nil {
		return nil, err
	}
	c, err := LoadConfig(s, m.Config.Digest)
	if err != nil {
		return nil, err
	}
	if len(m.Layers) != len(c.RootFS.DiffIDs) {
		return nil, fmt.Errorf("oci: manifest has %d layers but config lists %d diffIDs",
			len(m.Layers), len(c.RootFS.DiffIDs))
	}
	return &Image{Store: s, Desc: desc, Manifest: m, Config: c}, nil
}

// Layer decodes layer index i into a file system, after checking that
// the uncompressed tar stream it decodes hashes to the config's diffID
// for that layer.
func (img *Image) Layer(i int) (*fsim.FS, error) {
	if i < 0 || i >= len(img.Manifest.Layers) {
		return nil, fmt.Errorf("oci: layer index %d out of range [0,%d)", i, len(img.Manifest.Layers))
	}
	desc := img.Manifest.Layers[i]
	tarBytes, err := img.Store.Get(desc.Digest)
	if err != nil {
		return nil, err
	}
	switch desc.MediaType {
	case MediaTypeLayer:
	case MediaTypeLayerGzip:
		if tarBytes, err = gunzip(tarBytes); err != nil {
			return nil, fmt.Errorf("oci: decompressing layer %d: %w", i, err)
		}
	default:
		return nil, fmt.Errorf("oci: unsupported layer media type %q", desc.MediaType)
	}
	if got, want := digest.FromBytes(tarBytes), img.Config.RootFS.DiffIDs[i]; got != want {
		return nil, fmt.Errorf("oci: layer %d diffID mismatch: got %s, want %s", i, got.Short(), want.Short())
	}
	fs, err := tarfs.Unmarshal(tarBytes)
	if err != nil {
		return nil, fmt.Errorf("oci: decoding layer %d: %w", i, err)
	}
	return fs, nil
}

func gunzip(data []byte) ([]byte, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	return io.ReadAll(gz)
}

// Layers decodes every layer in order.
func (img *Image) Layers() ([]*fsim.FS, error) {
	out := make([]*fsim.FS, len(img.Manifest.Layers))
	for i := range img.Manifest.Layers {
		fs, err := img.Layer(i)
		if err != nil {
			return nil, err
		}
		out[i] = fs
	}
	return out, nil
}

// Flatten applies all layers in order and returns the final file system
// state — the POSIX-simulator computation the paper describes.
func (img *Image) Flatten() (*fsim.FS, error) {
	layers, err := img.Layers()
	if err != nil {
		return nil, err
	}
	return fsim.ApplyAll(layers), nil
}

// ChainID returns the chain ID of the image's full layer stack.
func (img *Image) ChainID() digest.Digest {
	ids := ChainIDs(img.Config.RootFS.DiffIDs)
	if len(ids) == 0 {
		return digest.FromString("")
	}
	return ids[len(ids)-1]
}

// WriteImage encodes layers, writes config and manifest into s, and returns
// the manifest descriptor. The config's RootFS is overwritten with the
// computed diffIDs.
func WriteImage(s *Store, cfg ImageConfig, layers []*fsim.FS) (Descriptor, error) {
	layerDescs := make([]Descriptor, 0, len(layers))
	diffIDs := make([]digest.Digest, 0, len(layers))
	for i, l := range layers {
		raw, err := tarfs.Marshal(l)
		if err != nil {
			return Descriptor{}, fmt.Errorf("oci: encoding layer %d: %w", i, err)
		}
		d := s.Put(raw)
		layerDescs = append(layerDescs, Descriptor{
			MediaType: MediaTypeLayer,
			Digest:    d,
			Size:      int64(len(raw)),
		})
		diffIDs = append(diffIDs, d)
	}
	cfg.RootFS = RootFS{Type: "layers", DiffIDs: diffIDs}
	cfgDesc, err := PutJSON(s, cfg, MediaTypeConfig)
	if err != nil {
		return Descriptor{}, err
	}
	m := Manifest{
		SchemaVersion: 2,
		MediaType:     MediaTypeManifest,
		Config:        cfgDesc,
		Layers:        layerDescs,
	}
	return PutJSON(s, m, MediaTypeManifest)
}

// WriteManifestList stores a multi-architecture image index referencing
// per-platform manifests — the publishing format of the cross-ISA
// container ecosystem the paper's §5.5 sketches. Every entry must carry a
// Platform.
func WriteManifestList(s *Store, entries []Descriptor) (Descriptor, error) {
	if len(entries) == 0 {
		return Descriptor{}, fmt.Errorf("oci: manifest list needs at least one entry")
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Platform == nil || e.Platform.Architecture == "" {
			return Descriptor{}, fmt.Errorf("oci: manifest-list entry %s has no platform", e.Digest.Short())
		}
		if seen[e.Platform.Architecture] {
			return Descriptor{}, fmt.Errorf("oci: duplicate platform %s in manifest list", e.Platform.Architecture)
		}
		seen[e.Platform.Architecture] = true
		if !s.Has(e.Digest) {
			return Descriptor{}, fmt.Errorf("oci: manifest %s not in store", e.Digest.Short())
		}
	}
	idx := Index{SchemaVersion: 2, MediaType: MediaTypeIndex, Manifests: entries}
	return PutJSON(s, idx, MediaTypeIndex)
}

// ResolvePlatform picks the manifest for an architecture out of a
// manifest list.
func ResolvePlatform(s *Store, list Descriptor, arch string) (Descriptor, error) {
	var idx Index
	if err := GetJSON(s, list.Digest, &idx); err != nil {
		return Descriptor{}, err
	}
	var archs []string
	for _, m := range idx.Manifests {
		if m.Platform == nil {
			continue
		}
		if m.Platform.Architecture == arch {
			return m, nil
		}
		archs = append(archs, m.Platform.Architecture)
	}
	return Descriptor{}, fmt.Errorf("oci: no manifest for architecture %s (have %v)", arch, archs)
}

// AppendLayer derives a new image from base by appending one layer. All of
// base's blobs are shared untouched; only a new layer blob, config and
// manifest are written. The history comment and layer role annotation
// identify the addition. Returns the new manifest descriptor.
func AppendLayer(s *Store, base Descriptor, layer *fsim.FS, role, comment string) (Descriptor, error) {
	img, err := LoadImage(s, base)
	if err != nil {
		return Descriptor{}, fmt.Errorf("oci: loading base image: %w", err)
	}
	raw, err := tarfs.Marshal(layer)
	if err != nil {
		return Descriptor{}, fmt.Errorf("oci: encoding appended layer: %w", err)
	}
	ld := s.Put(raw)

	cfg := *img.Config
	cfg.RootFS.DiffIDs = append(append([]digest.Digest(nil), cfg.RootFS.DiffIDs...), ld)
	cfg.History = append(append([]HistoryEntry(nil), cfg.History...), HistoryEntry{
		CreatedBy: "comtainer",
		Comment:   comment,
	})
	cfgDesc, err := PutJSON(s, cfg, MediaTypeConfig)
	if err != nil {
		return Descriptor{}, err
	}

	layers := append(append([]Descriptor(nil), img.Manifest.Layers...), Descriptor{
		MediaType:   MediaTypeLayer,
		Digest:      ld,
		Size:        int64(len(raw)),
		Annotations: map[string]string{AnnotationLayerRole: role},
	})
	m := Manifest{
		SchemaVersion: 2,
		MediaType:     MediaTypeManifest,
		Config:        cfgDesc,
		Layers:        layers,
	}
	return PutJSON(s, m, MediaTypeManifest)
}
