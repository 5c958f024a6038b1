package distrib

import (
	"fmt"

	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

// GC deletes every blob not reachable from roots — the tagged
// manifests and manifest lists of a registry. Reachability follows
// index → manifest → config/layer edges recursively. It refuses to run
// (and deletes nothing) if any root or intermediate manifest is
// missing or undecodable, so a partially-visible tree can never cause
// reachable blobs to be collected. Returns the number of blobs
// deleted.
//
// A blob for which protect (nil for none) returns true is kept even
// when unreachable from roots. A registry uses this to pin blobs
// committed by an in-flight push whose manifest has not yet registered
// its references — without it, a sweep racing a concurrent push could
// collect a blob between its commit and the ref registration, and the
// closing manifest PUT would then 400.
func GC(s Store, roots []oci.Descriptor, protect func(digest.Digest) bool) (int, error) {
	reachable := map[digest.Digest]bool{}
	get := func(d digest.Digest) ([]byte, error) { return ReadBlob(s, d) }
	for _, root := range roots {
		if reachable[root.Digest] {
			continue
		}
		err := oci.Walk(root, get, func(desc oci.Descriptor, _ []byte, blobs, _ []oci.Descriptor) error {
			reachable[desc.Digest] = true
			for _, b := range blobs {
				reachable[b.Digest] = true
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("distrib: gc: %w", err)
		}
	}
	dropped := 0
	for _, d := range s.Digests() {
		if reachable[d] {
			continue
		}
		if protect != nil && protect(d) {
			continue
		}
		if err := s.Delete(d); err != nil {
			return dropped, err
		}
		dropped++
	}
	return dropped, nil
}
