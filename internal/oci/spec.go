// Package oci implements the subset of the OCI image specification that
// container build tools (and coMtainer) manipulate: content-addressed blob
// stores, layer/config/manifest/index documents, image layout directories,
// and the layer arithmetic (diffIDs) that makes images verifiable.
//
// coMtainer's central trick — "thanks to the layered nature of OCI images,
// the injection of additional data introduces no changes to the original
// image" (paper §4.5) — is realized here by AppendLayer, which produces a
// new manifest that shares every existing blob with the original image.
package oci

import (
	"encoding/json"
	"fmt"

	"comtainer/internal/digest"
)

// OCI media types used throughout.
const (
	MediaTypeManifest  = "application/vnd.oci.image.manifest.v1+json"
	MediaTypeConfig    = "application/vnd.oci.image.config.v1+json"
	MediaTypeIndex     = "application/vnd.oci.image.index.v1+json"
	MediaTypeLayer     = "application/vnd.oci.image.layer.v1.tar"
	MediaTypeLayerGzip = "application/vnd.oci.image.layer.v1.tar+gzip"
)

// Annotation keys.
const (
	// AnnotationRefName tags a manifest inside an index, mirroring
	// org.opencontainers.image.ref.name.
	AnnotationRefName = "org.opencontainers.image.ref.name"
	// AnnotationLayerRole marks what a layer holds; coMtainer sets it to
	// "comtainer.cache" / "comtainer.rebuild" on its injected layers.
	AnnotationLayerRole = "io.comtainer.layer.role"
)

// Platform describes the target of an image.
type Platform struct {
	Architecture string `json:"architecture"`
	OS           string `json:"os"`
}

// Descriptor references a blob by digest, with its media type and size.
type Descriptor struct {
	MediaType   string            `json:"mediaType"`
	Digest      digest.Digest     `json:"digest"`
	Size        int64             `json:"size"`
	Annotations map[string]string `json:"annotations,omitempty"`
	Platform    *Platform         `json:"platform,omitempty"`
}

// Manifest is an OCI image manifest document.
type Manifest struct {
	SchemaVersion int               `json:"schemaVersion"`
	MediaType     string            `json:"mediaType"`
	Config        Descriptor        `json:"config"`
	Layers        []Descriptor      `json:"layers"`
	Annotations   map[string]string `json:"annotations,omitempty"`
}

// HistoryEntry records one build step in an image config.
type HistoryEntry struct {
	Created    string `json:"created,omitempty"`
	CreatedBy  string `json:"created_by,omitempty"`
	Comment    string `json:"comment,omitempty"`
	EmptyLayer bool   `json:"empty_layer,omitempty"`
}

// RootFS lists the uncompressed layer digests (diffIDs) of an image.
type RootFS struct {
	Type    string          `json:"type"`
	DiffIDs []digest.Digest `json:"diff_ids"`
}

// ExecConfig is the runtime portion of an image config.
type ExecConfig struct {
	Env        []string          `json:"Env,omitempty"`
	Entrypoint []string          `json:"Entrypoint,omitempty"`
	Cmd        []string          `json:"Cmd,omitempty"`
	WorkingDir string            `json:"WorkingDir,omitempty"`
	Labels     map[string]string `json:"Labels,omitempty"`
}

// ImageConfig is an OCI image config document (config.json).
type ImageConfig struct {
	Architecture string         `json:"architecture"`
	OS           string         `json:"os"`
	Config       ExecConfig     `json:"config"`
	RootFS       RootFS         `json:"rootfs"`
	History      []HistoryEntry `json:"history,omitempty"`
}

// Index is an OCI image index document (index.json of a layout).
type Index struct {
	SchemaVersion int          `json:"schemaVersion"`
	MediaType     string       `json:"mediaType,omitempty"`
	Manifests     []Descriptor `json:"manifests"`
}

// References decodes an image manifest or an image index and returns
// what the document keeps alive: blobs are a manifest's config and
// layers, children an index's member manifests, each of which has
// references of its own. Walk and a registry's one-level referential
// check are its callers, so push, pull, copy, GC and the registry agree
// on what an image is.
func References(doc []byte) (blobs, children []Descriptor, err error) {
	var refs struct {
		Config    *Descriptor  `json:"config"`
		Layers    []Descriptor `json:"layers"`
		Manifests []Descriptor `json:"manifests"`
	}
	if err := json.Unmarshal(doc, &refs); err != nil {
		return nil, nil, fmt.Errorf("oci: decoding manifest references: %w", err)
	}
	if refs.Config != nil && refs.Config.Digest != "" {
		blobs = append(blobs, *refs.Config)
	}
	return append(blobs, refs.Layers...), refs.Manifests, nil
}

// Walk visits every document of the image named by root — a manifest, or
// a manifest list and every member image beneath it — in post-order:
// children before the document that lists them, each document once. get
// reads a document by digest; visit receives it as its parent (or the
// caller, for root) described it, with what References found in it. A
// document get cannot produce or that does not decode ends the walk with
// an error naming its digest, as does an error from visit; nothing is
// visited afterwards. Push, pull, copy and GC are its callers, so the
// recursion over an image exists once.
func Walk(root Descriptor, get func(digest.Digest) ([]byte, error), visit func(desc Descriptor, doc []byte, blobs, children []Descriptor) error) error {
	seen := map[digest.Digest]bool{root.Digest: true}
	var walk func(Descriptor) error
	walk = func(desc Descriptor) error {
		doc, err := get(desc.Digest)
		if err != nil {
			return fmt.Errorf("oci: reading manifest %s: %w", desc.Digest, err)
		}
		blobs, children, err := References(doc)
		if err != nil {
			return fmt.Errorf("oci: manifest %s: %w", desc.Digest, err)
		}
		for _, child := range children {
			if seen[child.Digest] {
				continue
			}
			seen[child.Digest] = true
			if err := walk(child); err != nil {
				return err
			}
		}
		return visit(desc, doc, blobs, children)
	}
	return walk(root)
}

// canonicalJSON marshals v with sorted keys and no trailing newline so that
// document digests are deterministic. encoding/json already sorts map keys;
// struct fields marshal in declaration order, which is fixed.
func canonicalJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("oci: marshaling %T: %w", v, err)
	}
	return b, nil
}
