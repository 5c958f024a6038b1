package oci

import (
	"bytes"
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

// Store is a thread-safe content-addressed blob store. A blob's bytes are
// immutable from the moment the store holds them: Get hands out the
// stored slice itself, and stores, decoded layer trees and callers share
// it for as long as any of them lives.
//
// A blob is hashed when it enters a store, on every hop, and nothing
// inside a store hashes it again: Put, PutJSON and the layer writer
// compute the key they store under, PutVerified, Ingest and CopyImage
// check it (Ingest of a Receiver against the hash Receive made as the
// bytes arrived). So a stored blob hashes to its key, and a check of
// those bytes against that digest is the one the store already made.
type Store struct {
	mu    sync.RWMutex
	blobs map[digest.Digest][]byte
	// decoded remembers, for a layer blob the store holds, the tree
	// Image.Layer decoded from it and what that decode was verified
	// against. An entry lives exactly as long as its blob. The trees are
	// read-only and never leave the package: of an uncompressed layer
	// they alias the blob's own bytes, so an entry costs O(entries) on
	// top of the blob, which is why there is no bound and no eviction.
	decoded map[digest.Digest]decodedLayer
}

// decodedLayer is a layer tree together with the media type it was
// decoded as and the diffID its uncompressed bytes hashed to.
type decodedLayer struct {
	mediaType string
	diffID    digest.Digest
	tree      *fsim.FS
}

// NewStore returns an empty blob store.
func NewStore() *Store {
	return &Store{
		blobs:   make(map[digest.Digest][]byte),
		decoded: make(map[digest.Digest]decodedLayer),
	}
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

// adopt stores content, which hashes to d, as the slice it is: the caller
// hands over ownership and nothing may write to content afterwards. It is
// for bytes nobody else writes — what this package made, what another Store
// already holds, what Ingest read off its reader itself or a Receiver took
// in. Bytes a caller still holds go through Put or PutVerified, which copy.
func (s *Store) adopt(d digest.Digest, content []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[d]; !ok {
		s.blobs[d] = content
	}
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
// If want is non-empty the content must hash to it. The blob is read
// into one allocation of the size r says it has (Sized, ReadSized),
// hashed, and kept as that slice: nobody else holds it. A Receiver no
// sink has read from is neither read nor hashed: its buffer is kept as
// it is, under the digest Receive computed as the bytes arrived, and the
// Receiver is left empty.
func (s *Store) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	if rc, ok := r.(*Receiver); ok && rc.off == 0 {
		got, b := rc.Digest(), rc.buf
		if want != "" && got != want {
			return "", 0, fmt.Errorf("oci: digest mismatch: content is %s, want %s", got, want)
		}
		rc.buf = nil
		rc.Reset()
		s.adopt(got, b)
		return got, int64(len(b)), nil
	}
	size, declared := Sized(r)
	b, err := ReadSized(nil, r, size, declared)
	if err != nil {
		return "", 0, fmt.Errorf("oci: ingesting blob: %w", err)
	}
	got := digest.FromBytes(b)
	if want != "" && got != want {
		return "", 0, fmt.Errorf("oci: digest mismatch: content is %s, want %s", got, want)
	}
	s.adopt(got, b)
	return got, int64(len(b)), nil
}

// Delete removes blob d and the tree decoded from it. Deleting an absent
// blob is not an error.
func (s *Store) Delete(d digest.Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, d)
	delete(s.decoded, d)
	return nil
}

// Has reports whether the store holds blob d.
func (s *Store) Has(d digest.Digest) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blobs[d]
	return ok
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
// member image in turn. Each blob is hashed and must match the digest it
// was asked for by; the two stores then share its bytes.
func (s *Store) CopyImage(src *Store, desc Descriptor) error {
	return Walk(desc, src.Get, func(d Descriptor, _ []byte, blobs, _ []Descriptor) error {
		for _, b := range blobs {
			if err := s.copyBlob(src, b.Digest); err != nil {
				return fmt.Errorf("oci: copying blob of %s: %w", d.Digest.Short(), err)
			}
		}
		if err := s.copyBlob(src, d.Digest); err != nil {
			return fmt.Errorf("oci: copying manifest: %w", err)
		}
		return nil
	})
}

// copyBlob makes s hold src's blob d, verified.
func (s *Store) copyBlob(src *Store, d digest.Digest) error {
	content, err := src.Get(d)
	if err != nil {
		return err
	}
	if got := digest.FromBytes(content); got != d {
		return fmt.Errorf("oci: digest mismatch: content is %s, want %s", got, d)
	}
	s.adopt(d, content)
	return nil
}

// PutJSON marshals v canonically, stores it, and returns a descriptor with
// the given media type.
func PutJSON(s *Store, v any, mediaType string) (Descriptor, error) {
	b, err := canonicalJSON(v)
	if err != nil {
		return Descriptor{}, err
	}
	d := digest.FromBytes(b)
	s.adopt(d, b)
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
// for that layer. The result is the caller's own.
func (img *Image) Layer(i int) (*fsim.FS, error) {
	tree, err := img.layer(i)
	if err != nil {
		return nil, err
	}
	return tree.Clone(), nil
}

// layer is Layer returning the store's own remembered tree, which the
// caller only reads. The store skips the hash and the tar parse for a
// blob it has already decoded under this media type and diffID; anything
// else is decoded and checked. An uncompressed layer whose diffID is its
// digest was checked when the blob entered the store (see Store); any
// other layer is hashed against its diffID here.
func (img *Image) layer(i int) (*fsim.FS, error) {
	if i < 0 || i >= len(img.Manifest.Layers) {
		return nil, fmt.Errorf("oci: layer index %d out of range [0,%d)", i, len(img.Manifest.Layers))
	}
	desc, diffID := img.Manifest.Layers[i], img.Config.RootFS.DiffIDs[i]
	s := img.Store
	s.mu.RLock()
	tarBytes, held := s.blobs[desc.Digest]
	known, ok := s.decoded[desc.Digest]
	s.mu.RUnlock()
	if !held {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, desc.Digest)
	}
	if ok && known.mediaType == desc.MediaType && known.diffID == diffID {
		return known.tree, nil
	}
	switch desc.MediaType {
	case MediaTypeLayer:
	case MediaTypeLayerGzip:
		var err error
		if tarBytes, err = Gunzip(tarBytes, MaxBlobSize); err != nil {
			return nil, fmt.Errorf("oci: decompressing layer %d: %w", i, err)
		}
	default:
		return nil, fmt.Errorf("oci: unsupported layer media type %q", desc.MediaType)
	}
	if desc.MediaType != MediaTypeLayer || desc.Digest != diffID {
		if got := digest.FromBytes(tarBytes); got != diffID {
			return nil, fmt.Errorf("oci: layer %d diffID mismatch: got %s, want %s", i, got.Short(), diffID.Short())
		}
	}
	tree, err := tarfs.Unmarshal(tarBytes)
	if err != nil {
		return nil, fmt.Errorf("oci: decoding layer %d: %w", i, err)
	}
	s.mu.Lock()
	// Not kept if a Delete took the blob meanwhile.
	if _, held := s.blobs[desc.Digest]; held {
		s.decoded[desc.Digest] = decodedLayer{desc.MediaType, diffID, tree}
	}
	s.mu.Unlock()
	return tree, nil
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
	return img.FlattenPrefix(len(img.Manifest.Layers))
}

// FlattenPrefix returns the file system state after the first n layers:
// the empty root for 0, Flatten's result for all of them.
func (img *Image) FlattenPrefix(n int) (*fsim.FS, error) {
	if n < 0 || n > len(img.Manifest.Layers) {
		return nil, fmt.Errorf("oci: layer count %d out of range [0,%d]", n, len(img.Manifest.Layers))
	}
	layers := make([]*fsim.FS, n)
	for i := range layers {
		var err error
		if layers[i], err = img.layer(i); err != nil {
			return nil, err
		}
	}
	return fsim.ApplyAll(layers), nil
}

// WriteImage encodes layers, writes config and manifest into s, and returns
// the manifest descriptor. The config's RootFS is overwritten with the
// computed diffIDs.
func WriteImage(s *Store, cfg ImageConfig, layers []*fsim.FS) (Descriptor, error) {
	return writeImage(s, cfg, nil, nil, layers, nil)
}

// WriteDerivedImage writes the image made of base's layers followed by
// layers, under cfg, into s — what WriteImage gives for base.Layers()
// plus layers, without decoding or re-encoding what s already stores. A
// base layer that is an uncompressed tar blob of s whose diffID is its
// digest is its own encoding and is referenced by media type, digest and
// size (annotations dropped, as re-encoding would drop them). Any other
// base layer — compressed, or held only by base's store — is decoded,
// hence verified, and encoded afresh.
func WriteDerivedImage(s *Store, cfg ImageConfig, base *Image, layers []*fsim.FS) (Descriptor, error) {
	descs := make([]Descriptor, 0, len(base.Manifest.Layers)+len(layers))
	diffIDs := make([]digest.Digest, 0, cap(descs))
	for i, d := range base.Manifest.Layers {
		if d.MediaType == MediaTypeLayer && d.Digest == base.Config.RootFS.DiffIDs[i] {
			if blob, err := s.Get(d.Digest); err == nil {
				descs = append(descs, Descriptor{MediaType: MediaTypeLayer, Digest: d.Digest, Size: int64(len(blob))})
				diffIDs = append(diffIDs, d.Digest)
				continue
			}
		}
		tree, err := base.layer(i)
		if err != nil {
			return Descriptor{}, err
		}
		desc, err := putLayer(s, tree)
		if err != nil {
			return Descriptor{}, fmt.Errorf("oci: encoding base layer %d: %w", i, err)
		}
		descs = append(descs, desc)
		diffIDs = append(diffIDs, desc.Digest)
	}
	return writeImage(s, cfg, descs, diffIDs, layers, nil)
}

// putLayer encodes layer as an uncompressed tar blob of s and returns its
// descriptor; the blob's digest is also the layer's diffID.
func putLayer(s *Store, layer *fsim.FS) (Descriptor, error) {
	raw, err := tarfs.Marshal(layer)
	if err != nil {
		return Descriptor{}, err
	}
	d := digest.FromBytes(raw)
	s.adopt(d, raw)
	return Descriptor{MediaType: MediaTypeLayer, Digest: d, Size: int64(len(raw))}, nil
}

// writeImage is the one image writer: it encodes added on top of the
// layers s already stores (descs with their diffIDs), giving each added
// layer's descriptor the annotations, and writes the config — its RootFS
// overwritten — and the manifest.
func writeImage(s *Store, cfg ImageConfig, descs []Descriptor, diffIDs []digest.Digest, added []*fsim.FS, annotations map[string]string) (Descriptor, error) {
	// Full slice expressions: a base's manifest and config are not appended into.
	descs, diffIDs = descs[:len(descs):len(descs)], diffIDs[:len(diffIDs):len(diffIDs)]
	for _, l := range added {
		desc, err := putLayer(s, l)
		if err != nil {
			return Descriptor{}, fmt.Errorf("oci: encoding layer %d: %w", len(descs), err)
		}
		desc.Annotations = annotations
		descs = append(descs, desc)
		diffIDs = append(diffIDs, desc.Digest)
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
		Layers:        descs,
	}
	return PutJSON(s, m, MediaTypeManifest)
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
	cfg := *img.Config
	cfg.History = append(append([]HistoryEntry(nil), cfg.History...), HistoryEntry{
		CreatedBy: "comtainer",
		Comment:   comment,
	})
	return writeImage(s, cfg, img.Manifest.Layers, img.Config.RootFS.DiffIDs, []*fsim.FS{layer},
		map[string]string{AnnotationLayerRole: role})
}
