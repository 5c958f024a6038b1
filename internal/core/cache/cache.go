// Package cache implements coMtainer's cache storage (paper §4.2/§4.5):
// it serializes the process models and the collected build-time data
// (source files) into a new OCI layer, appends that layer to the dist
// image to form the *extended image* (manifest tagged with the +coM
// suffix), and reads the data back on the system side.
//
// Because the cache rides as an extra layer, "the injection of additional
// data introduces no changes to the original image".
package cache

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/toolchain"
)

// Cache layer locations inside the extended image. The models document is
// stored gzip-compressed: its content is highly repetitive structured
// data, and the cache layer must stay a small fraction of the image size
// (Table 3).
const (
	Dir        = "/.comtainer/cache"
	ModelsPath = Dir + "/models.json.gz"
	MetaPath   = Dir + "/meta.json"
	SrcPrefix  = Dir + "/src" // + original absolute path
)

// gzipBytes compresses b deterministically (zeroed mtime).
func gzipBytes(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return nil, err
	}
	zw.ModTime = time.Unix(0, 0).UTC()
	if _, err := zw.Write(b); err != nil {
		zw.Close()
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gunzipBytes decompresses b.
func gunzipBytes(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		zr.Close()
		return nil, err
	}
	return out, zr.Close()
}

// Manifest tag suffixes of the workflow's intermediate images (paper
// artifact appendix: "+coM" after coMtainer-build, "+coMre" after
// coMtainer-rebuild).
const (
	ExtendedSuffix = "+coM"
	RebuiltSuffix  = "+coMre"
)

// Layer roles recorded in manifest annotations.
const (
	RoleCache   = "comtainer.cache"
	RoleRebuild = "comtainer.rebuild"
)

// Meta describes a cache layer.
type Meta struct {
	Version    int    `json:"version"`
	CreatedBy  string `json:"createdBy"`
	Sources    int    `json:"sources"`
	Obfuscated bool   `json:"obfuscated,omitempty"`
	Format     string `json:"format,omitempty"`
}

// formatName names a Format for the meta document.
func formatName(f Format) string {
	if f == FormatIR {
		return model.DistIR
	}
	return model.DistSource
}

// langForPath guesses the language of a source path for IR lowering.
func langForPath(p string) string {
	switch {
	case strings.HasSuffix(p, ".cc"), strings.HasSuffix(p, ".cpp"), strings.HasSuffix(p, ".cxx"):
		return "c++"
	case strings.HasSuffix(p, ".f"), strings.HasSuffix(p, ".f90"), strings.HasSuffix(p, ".F90"):
		return "fortran"
	default:
		return "c"
	}
}

// ExtendedTag returns the index tag of the extended image derived from
// distTag.
func ExtendedTag(distTag string) string { return distTag + ExtendedSuffix }

// RebuiltTag returns the index tag of the rebuilt image derived from
// distTag.
func RebuiltTag(distTag string) string { return distTag + RebuiltSuffix }

// DistTags returns, in the order of tags, the dist tag of every one that
// ends in suffix (ExtendedSuffix or RebuiltSuffix): what a layout holds an
// extended or a rebuilt image of.
func DistTags(tags []string, suffix string) []string {
	var out []string
	for _, tag := range tags {
		if dist, ok := strings.CutSuffix(tag, suffix); ok {
			out = append(out, dist)
		}
	}
	return out
}

// Format selects the distribution form of the cached build inputs.
type Format int

// Distribution formats (paper §4.6: source is the highest abstraction
// level; IR protects sources harder but locks package versions and ISA).
const (
	FormatSource Format = iota
	FormatIR
)

// Options configure cache-layer construction.
type Options struct {
	// Obfuscate rewrites every collected source through ObfuscateSource
	// before it enters the cache layer (paper §4.6: IP protection while
	// keeping system-side adaptation possible). Incompatible with
	// FormatIR (IR is already opaque).
	Obfuscate bool
	// Format selects source (default) or compiler-IR distribution.
	Format Format
}

// BuildLayerWith assembles the cache layer: the serialized models plus
// every referenced source file, stored under SrcPrefix at its original
// path, in the form opts selects.
func BuildLayerWith(m *model.Models, buildFS *fsim.FS, opts Options) (*fsim.FS, error) {
	if opts.Obfuscate && opts.Format == FormatIR {
		return nil, fmt.Errorf("cache: obfuscation and IR distribution are mutually exclusive")
	}
	if opts.Format == FormatIR {
		m = m.Clone()
		m.Distribution = model.DistIR
	}
	layer := fsim.New()
	blob, err := m.Marshal()
	if err != nil {
		return nil, err
	}
	packed, err := gzipBytes(blob)
	if err != nil {
		return nil, fmt.Errorf("cache: compressing models: %w", err)
	}
	layer.WriteFile(ModelsPath, packed, 0o644)
	for _, src := range m.SourcePaths {
		data, err := buildFS.ReadFile(src)
		if err != nil {
			return nil, fmt.Errorf("cache: collecting source %s: %w", src, err)
		}
		switch {
		case opts.Format == FormatIR:
			bc := toolchain.BitcodeArtifact(src, data, m.BuildISA, langForPath(src))
			data = bc.Encode()
		case opts.Obfuscate:
			data = ObfuscateSource(src, data)
		}
		layer.WriteFile(SrcPrefix+src, data, 0o644)
	}
	meta := Meta{Version: 1, CreatedBy: "coMtainer-build", Sources: len(m.SourcePaths), Obfuscated: opts.Obfuscate, Format: formatName(opts.Format)}
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("cache: encoding meta: %w", err)
	}
	layer.WriteFile(MetaPath, mb, 0o644)
	return layer, nil
}

// ExtendWith appends the cache layer to the image tagged distTag in repo
// and tags the result with the +coM suffix. It returns the extended
// image's manifest descriptor.
func ExtendWith(repo *oci.Repository, distTag string, m *model.Models, buildFS *fsim.FS, opts Options) (oci.Descriptor, error) {
	distDesc, err := repo.Resolve(distTag)
	if err != nil {
		return oci.Descriptor{}, err
	}
	layer, err := BuildLayerWith(m, buildFS, opts)
	if err != nil {
		return oci.Descriptor{}, err
	}
	ext, err := oci.AppendLayer(repo.Store, distDesc, layer, RoleCache, "coMtainer cache layer")
	if err != nil {
		return oci.Descriptor{}, err
	}
	repo.Tag(ExtendedTag(distTag), ext)
	return ext, nil
}

// CacheLayerSize returns the byte size of the extended image's cache
// layer blob (the Table-3 "Cache" column).
func CacheLayerSize(repo *oci.Repository, extDesc oci.Descriptor) (int64, error) {
	mfst, err := oci.LoadManifest(repo.Store, extDesc.Digest)
	if err != nil {
		return 0, err
	}
	for i := len(mfst.Layers) - 1; i >= 0; i-- {
		if mfst.Layers[i].Annotations[oci.AnnotationLayerRole] == RoleCache {
			return mfst.Layers[i].Size, nil
		}
	}
	return 0, fmt.Errorf("cache: image has no cache layer")
}

// ContentSize returns the total content bytes of the extended image's
// cache layer (models + sources) — the size accounting Table 3 reports.
func ContentSize(repo *oci.Repository, extDesc oci.Descriptor) (int64, error) {
	img, err := oci.LoadImage(repo.Store, extDesc)
	if err != nil {
		return 0, err
	}
	for i := len(img.Manifest.Layers) - 1; i >= 0; i-- {
		if img.Manifest.Layers[i].Annotations[oci.AnnotationLayerRole] != RoleCache {
			continue
		}
		layerFS, err := img.Layer(i)
		if err != nil {
			return 0, err
		}
		return layerFS.TotalSize(), nil
	}
	return 0, fmt.Errorf("cache: image has no cache layer")
}

// Read loads the models and the source tree from an extended image. The
// returned FS holds the sources at their *original* build-container paths,
// ready to be materialized into a rebuild container.
func Read(extImg *oci.Image) (*model.Models, *fsim.FS, error) {
	flat, err := extImg.Flatten()
	if err != nil {
		return nil, nil, err
	}
	if !flat.Exists(ModelsPath) {
		return nil, nil, fmt.Errorf("cache: image carries no coMtainer cache layer (run coMtainer-build first)")
	}
	packed, err := flat.ReadFile(ModelsPath)
	if err != nil {
		return nil, nil, err
	}
	blob, err := gunzipBytes(packed)
	if err != nil {
		return nil, nil, fmt.Errorf("cache: corrupt models document: %w", err)
	}
	m, err := model.Unmarshal(blob)
	if err != nil {
		return nil, nil, err
	}
	srcFS := fsim.New()
	err = flat.Walk(func(f *fsim.File) error {
		if f.Type == fsim.TypeRegular && strings.HasPrefix(f.Path, SrcPrefix+"/") {
			srcFS.Add(&fsim.File{Path: strings.TrimPrefix(f.Path, SrcPrefix), Mode: 0o644, Data: f.Data})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Integrity: every declared source must be present.
	for _, src := range m.SourcePaths {
		if !srcFS.Exists(src) {
			return nil, nil, fmt.Errorf("cache: source %s declared but missing from the cache layer", src)
		}
	}
	return m, srcFS, nil
}
