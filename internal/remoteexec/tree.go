package remoteexec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
)

// This file is the snapshot format the executor ships its rebuild file
// system in: a tree document listing every path with its type, mode
// and (for regular files) content digest, plus one content-addressed
// blob per distinct file content. Workers fetch the tree once per
// rebuild session and clone the materialized FS per task, so the
// session's base image crosses the wire exactly once per worker no
// matter how many actions it executes.

// TreeEntry is one path of a snapshot.
type TreeEntry struct {
	Path string `json:"path"`
	// Type is "f" (regular), "d" (directory) or "l" (symlink).
	Type string `json:"type"`
	Mode uint32 `json:"mode,omitempty"`
	// Data is the content blob digest of a regular file.
	Data digest.Digest `json:"data,omitempty"`
	// Target is a symlink's target.
	Target string `json:"target,omitempty"`
}

// Tree is a full file-system snapshot, entries sorted by path.
type Tree struct {
	Entries []TreeEntry `json:"entries"`
}

const treeMagic = "#!COMT-EXEC-TREE\n"

// EncodeTree serializes t with a magic prefix.
func EncodeTree(t Tree) []byte {
	b, err := json.Marshal(t)
	if err != nil {
		panic("remoteexec: marshaling tree: " + err.Error())
	}
	return append([]byte(treeMagic), b...)
}

// DecodeTree parses bytes produced by EncodeTree.
func DecodeTree(b []byte) (Tree, error) {
	var t Tree
	rest, ok := bytes.CutPrefix(b, []byte(treeMagic))
	if !ok {
		return t, fmt.Errorf("remoteexec: missing %q magic", strings.TrimSpace(treeMagic))
	}
	if err := json.Unmarshal(rest, &t); err != nil {
		return t, fmt.Errorf("remoteexec: decoding tree: %w", err)
	}
	return t, nil
}

// SnapshotTree captures fsys as a tree document plus the content
// blobs it references (keyed by digest, deduplicated).
func SnapshotTree(fsys *fsim.FS) (Tree, map[digest.Digest][]byte, error) {
	blobs := map[digest.Digest][]byte{}
	var t Tree
	err := fsys.Walk(func(f *fsim.File) error {
		e := TreeEntry{Path: f.Path, Mode: uint32(f.Mode)}
		switch f.Type {
		case fsim.TypeRegular:
			e.Type = "f"
			d := digest.FromBytes(f.Data)
			e.Data = d
			blobs[d] = f.Data
		case fsim.TypeDir:
			e.Type = "d"
		case fsim.TypeSymlink:
			e.Type = "l"
			e.Target = f.Target
		default:
			return nil
		}
		t.Entries = append(t.Entries, e)
		return nil
	})
	if err != nil {
		return Tree{}, nil, err
	}
	sort.Slice(t.Entries, func(i, j int) bool { return t.Entries[i].Path < t.Entries[j].Path })
	return t, blobs, nil
}

// PushTree snapshots fsys and publishes it to DefaultRepo through
// client: every distinct content blob, then the tree document itself.
// Returns the tree blob's digest — the handle a TaskSpec carries.
func PushTree(ctx context.Context, client *distrib.Client, fsys *fsim.FS) (digest.Digest, error) {
	t, blobs, err := SnapshotTree(fsys)
	if err != nil {
		return "", fmt.Errorf("remoteexec: snapshotting tree: %w", err)
	}
	for d, data := range blobs {
		if _, err := client.PushBytes(ctx, DefaultRepo, data); err != nil {
			return "", fmt.Errorf("remoteexec: pushing tree blob %s: %w", d.Short(), err)
		}
	}
	td, err := client.PushBytes(ctx, DefaultRepo, EncodeTree(t))
	if err != nil {
		return "", fmt.Errorf("remoteexec: pushing tree document: %w", err)
	}
	return td, nil
}

// FetchTree retrieves the snapshot td from DefaultRepo and
// materializes it as a fresh FS.
func FetchTree(ctx context.Context, client *distrib.Client, td digest.Digest) (*fsim.FS, error) {
	mem := oci.NewStore()
	if err := client.FetchBlob(ctx, mem, DefaultRepo, td); err != nil {
		return nil, fmt.Errorf("remoteexec: fetching tree document %s: %w", td.Short(), err)
	}
	raw, err := mem.Get(td)
	if err != nil {
		return nil, err
	}
	t, err := DecodeTree(raw)
	if err != nil {
		return nil, err
	}
	out := fsim.New()
	for _, e := range t.Entries {
		switch e.Type {
		case "f":
			if !mem.Has(e.Data) {
				if err := client.FetchBlob(ctx, mem, DefaultRepo, e.Data); err != nil {
					return nil, fmt.Errorf("remoteexec: fetching content %s for %s: %w", e.Data.Short(), e.Path, err)
				}
			}
			data, err := mem.Get(e.Data)
			if err != nil {
				return nil, err
			}
			out.WriteFile(e.Path, data, fs.FileMode(e.Mode))
		case "d":
			if err := out.MkdirAll(e.Path, fs.FileMode(e.Mode)); err != nil {
				return nil, err
			}
		case "l":
			out.Symlink(e.Target, e.Path)
		default:
			return nil, fmt.Errorf("remoteexec: tree entry %s has unknown type %q", e.Path, e.Type)
		}
	}
	return out, nil
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
