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
func GC(s Store, roots []oci.Descriptor) (int, error) {
	return GCProtected(s, roots, nil)
}

// GCProtected is GC with an extra survival rule: any blob for which
// protect returns true is kept even when unreachable from roots. A
// registry uses this to pin blobs committed by an in-flight push whose
// manifest has not yet registered its references — without it, a sweep
// racing a concurrent push could collect a blob between its commit and
// the ref registration, and the closing manifest PUT would then 400.
func GCProtected(s Store, roots []oci.Descriptor, protect func(digest.Digest) bool) (int, error) {
	reachable := map[digest.Digest]bool{}
	var walk func(d digest.Digest) error
	walk = func(d digest.Digest) error {
		if reachable[d] {
			return nil
		}
		reachable[d] = true
		b, err := ReadBlob(s, d)
		if err != nil {
			return fmt.Errorf("distrib: gc: reading manifest %s: %w", d.Short(), err)
		}
		blobs, children, err := oci.References(b)
		if err != nil {
			return fmt.Errorf("distrib: gc: manifest %s: %w", d.Short(), err)
		}
		for _, bd := range blobs {
			reachable[bd.Digest] = true
		}
		for _, m := range children {
			if err := walk(m.Digest); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range roots {
		if err := walk(root.Digest); err != nil {
			return 0, err
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
