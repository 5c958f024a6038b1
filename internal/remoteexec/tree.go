package remoteexec

import (
	"context"
	"fmt"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/tarfs"
)

// The executor ships its rebuild file system as what an image ships
// one in: an uncompressed tarfs layer, one blob. Workers fetch it once
// per rebuild session and clone the materialized FS per task, so the
// session's base image crosses the wire exactly once per worker no
// matter how many actions it executes.

// PushTree publishes fsys to DefaultRepo through client as one layer
// blob. Returns its digest — the handle a TaskSpec carries.
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

// pushResult publishes the action record res (a worker's result, or an
// executor's overlay: outputs only) as a content blob in DefaultRepo,
// returning its digest.
func pushResult(ctx context.Context, client *distrib.Client, res actioncache.Result) (digest.Digest, error) {
	d, err := client.PushBytes(ctx, DefaultRepo, actioncache.EncodeResult(res))
	if err != nil {
		return "", fmt.Errorf("remoteexec: pushing action record %s: %w", d.Short(), err)
	}
	return d, nil
}

// fetchResult retrieves and decodes the action-record blob d.
func fetchResult(ctx context.Context, client *distrib.Client, d digest.Digest) (actioncache.Result, error) {
	raw, err := client.FetchBytes(ctx, DefaultRepo, d)
	if err != nil {
		return actioncache.Result{}, fmt.Errorf("remoteexec: fetching action record %s: %w", d.Short(), err)
	}
	return actioncache.DecodeResult(raw)
}
