package remoteexec

import (
	"context"
	"fmt"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/tarfs"
)

// A session's file system crosses the wire as what an image ships one
// in: uncompressed tarfs layers, one blob each. The lower layers are
// the Sysenv image's own blobs, which the farm keeps from one session
// to the next; the session's layer is what the rebuild adds to them.
// Workers build each chain of layers once and clone the materialized
// FS per task, so a layer crosses the wire once per worker while its
// tree is kept, no matter how many actions or sessions use it.

// PushTree publishes fsys to DefaultRepo through client as one layer
// blob. Returns its digest, the last of a TaskSpec's Base.
func PushTree(ctx context.Context, client *distrib.Client, fsys *fsim.FS) (digest.Digest, error) {
	layer, err := tarfs.Marshal(fsys)
	if err != nil {
		return "", fmt.Errorf("remoteexec: marshaling tree: %w", err)
	}
	td, err := client.PushBytes(ctx, DefaultRepo, layer)
	if err != nil {
		return "", fmt.Errorf("remoteexec: pushing tree %s: %w", td.Short(), err)
	}
	return td, nil
}

// FetchTree retrieves the layer blob td from DefaultRepo, verified
// against td, and materializes it as a fresh FS whose files alias the
// fetched bytes.
func FetchTree(ctx context.Context, client *distrib.Client, td digest.Digest) (*fsim.FS, error) {
	layer, err := client.FetchBytes(ctx, DefaultRepo, td)
	if err != nil {
		return nil, fmt.Errorf("remoteexec: fetching tree %s: %w", td.Short(), err)
	}
	fsys, err := tarfs.Unmarshal(layer)
	if err != nil {
		return nil, fmt.Errorf("remoteexec: decoding tree %s: %w", td.Short(), err)
	}
	return fsys, nil
}
