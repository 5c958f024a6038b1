// Package distrib is the image-distribution substrate beneath
// internal/registry — the production-shaped half of the repository hop
// ("images are then distributed via repositories", paper §1).
//
// It provides:
//
//   - BlobSource/BlobSink/Store: streaming content-addressed blob
//     interfaces that both the in-memory oci.Store and the disk-backed
//     DiskStore satisfy, so a registry can mount either.
//   - DiskStore: a persistent, sharded (blobs/sha256/ab/abcd…),
//     digest-verified blob store with atomic temp-file+rename writes.
//   - TagStore: the tag → manifest-descriptor mapping, in memory or
//     persisted per-ref on disk (DiskTags, through the same
//     faultinject.FS seam and commit protocol as DiskStore).
//   - UploadManager: server-side resumable upload sessions backing the
//     OCI distribution push protocol (POST/PATCH/PUT).
//   - Client: a concurrent pull/push client with a bounded worker pool,
//     singleflight dedup of in-flight fetches and cross-image blob
//     dedup. It is also the module's one HTTP client: every request,
//     the build farm's JSON calls included, is built and sent by
//     Client.Do, every non-accepted status is the one error type
//     StatusCode reads, and every retry runs in Client.Retry — one
//     budget of Retries+1 attempts per operation, exponential from
//     RetryBackoff, with no second loop nested inside.
//   - GC: reference-counting garbage collection over tagged manifests
//     and manifest lists.
package distrib

import (
	"fmt"
	"io"

	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

// ReplicatedHeader marks a write request as intra-fleet replication
// traffic: a shard leader forwarding a committed write to its
// followers sets it, and a registry receiving it skips its own commit
// hook — breaking the replication loop in symmetric leader-follower
// pairs where every replica is configured to forward to the others.
const ReplicatedHeader = "Comtainer-Replicated"

// BlobSource is the read side of a content-addressed blob store. Open
// streams blob content so large layers never need to be fully resident.
type BlobSource interface {
	// Has reports whether the store holds blob d.
	Has(d digest.Digest) bool
	// Open returns a reader over blob d and the blob's size.
	Open(d digest.Digest) (io.ReadCloser, int64, error)
	// Digests returns the sorted digests of every stored blob.
	Digests() []digest.Digest
}

// BlobSink is the write side of a content-addressed blob store.
type BlobSink interface {
	// Ingest streams r into the store. If want is non-empty the content
	// must hash to it; otherwise the computed digest is used. Returns
	// the digest and size of the stored blob.
	Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error)
}

// Store is a full blob store: readable, writable, collectable.
type Store interface {
	BlobSource
	BlobSink
	// Delete removes blob d. Deleting an absent blob is not an error.
	Delete(d digest.Digest) error
}

// ReadBlob buffers the whole content of blob d — a convenience for
// small blobs (manifests, configs) where streaming buys nothing. The
// buffer is allocated once, at the size Open returned, and a source
// that turns out shorter or longer than that is an error.
func ReadBlob(src BlobSource, d digest.Digest) ([]byte, error) {
	r, n, err := src.Open(d)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	b, err := oci.ReadSized(nil, r, n, false)
	if err != nil {
		return nil, fmt.Errorf("distrib: reading blob %s: %w", d.Short(), err)
	}
	return b, nil
}
