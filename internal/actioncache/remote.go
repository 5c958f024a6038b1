package actioncache

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// DefaultRemoteRepo is the registry repository RemoteCache uses when
// none is configured.
const DefaultRemoteRepo = "comtainer-actions"

// MediaTypeEntry is the media type of an action-cache entry blob
// stored in a registry.
const MediaTypeEntry = "application/vnd.comtainer.action-cache.entry.v1"

// RemoteCache stores entries in a comtainer registry via the distrib
// client, so a fleet of system-side rebuilders shares one warm cache.
// Each entry becomes a blob referenced by a one-layer manifest tagged
// "ac-<key hex>" — plain OCI distribution primitives, nothing
// registry-side to add. Transfers inherit the client's retry,
// worker-pool and singleflight behavior. Safe for concurrent use.
type RemoteCache struct {
	client *distrib.Client
	repo   string

	hits, misses, errors atomic.Int64
}

// defaultRemoteTimeout bounds each Get and Put, so a wedged registry
// can never hang a rebuild indefinitely.
const defaultRemoteTimeout = 30 * time.Second

// opCtx is the context of one Get or Put.
func opCtx() (context.Context, context.CancelFunc) {
	//comtainer:allow ctxflow -- Get and Put implement the ctx-free Cache interface; the root minted here is bounded by defaultRemoteTimeout
	return context.WithTimeout(context.Background(), defaultRemoteTimeout)
}

// NewRemoteCache returns a remote tier talking to the registry at
// base (e.g. "http://127.0.0.1:5000"), storing entries under repo
// (DefaultRemoteRepo if empty).
func NewRemoteCache(base, repo string) *RemoteCache {
	if repo == "" {
		repo = DefaultRemoteRepo
	}
	return &RemoteCache{client: distrib.NewClient(base), repo: repo}
}

// NewRemoteCacheClient is NewRemoteCache over an existing client
// (custom workers, retries, transport).
func NewRemoteCacheClient(client *distrib.Client, repo string) *RemoteCache {
	if repo == "" {
		repo = DefaultRemoteRepo
	}
	return &RemoteCache{client: client, repo: repo}
}

func (c *RemoteCache) tag(key digest.Digest) string { return "ac-" + key.Hex() }

// Get fetches the entry tagged for key under the per-op deadline. A
// 404 on the manifest is a clean miss; any other failure is a tier
// error.
func (c *RemoteCache) Get(key digest.Digest) ([]byte, bool, error) {
	ctx, cancel := opCtx()
	defer cancel()
	body, _, _, err := c.client.FetchManifest(ctx, c.repo, c.tag(key))
	if err != nil {
		if distrib.StatusCode(err) == http.StatusNotFound {
			c.misses.Add(1)
			return nil, false, nil
		}
		c.errors.Add(1)
		return nil, false, err
	}
	var m oci.Manifest
	if err := json.Unmarshal(body, &m); err != nil || len(m.Layers) != 1 {
		c.errors.Add(1)
		return nil, false, fmt.Errorf("actioncache: remote entry %s has malformed manifest", key.Short())
	}
	val, err := c.client.FetchBytes(ctx, c.repo, m.Layers[0].Digest)
	if err != nil {
		c.errors.Add(1)
		return nil, false, fmt.Errorf("actioncache: fetching remote entry %s: %w", key.Short(), err)
	}
	c.hits.Add(1)
	return val, true, nil
}

// Put publishes val as a blob plus a tagged one-layer manifest under
// the per-op deadline. The blob is pushed before the manifest so the
// registry's referential check always passes.
func (c *RemoteCache) Put(key digest.Digest, val []byte) error {
	ctx, cancel := opCtx()
	defer cancel()
	vd, err := c.client.PushBytes(ctx, c.repo, val)
	if err != nil {
		c.errors.Add(1)
		return fmt.Errorf("actioncache: pushing remote entry %s: %w", key.Short(), err)
	}
	mb, err := json.Marshal(oci.Manifest{
		SchemaVersion: 2,
		MediaType:     oci.MediaTypeManifest,
		Layers: []oci.Descriptor{{
			MediaType: MediaTypeEntry,
			Digest:    vd,
			Size:      int64(len(val)),
		}},
		Annotations: map[string]string{"vnd.comtainer.action-cache.key": string(key)},
	})
	if err != nil {
		return fmt.Errorf("actioncache: marshaling remote manifest: %w", err)
	}
	if err := c.client.PushManifest(ctx, c.repo, c.tag(key), oci.MediaTypeManifest, mb); err != nil {
		c.errors.Add(1)
		return fmt.Errorf("actioncache: tagging remote entry %s: %w", key.Short(), err)
	}
	return nil
}

// Stats reports the remote tier's counters.
func (c *RemoteCache) Stats() Stats {
	return Stats{
		RemoteHits:   c.hits.Load(),
		RemoteMisses: c.misses.Load(),
		Errors:       c.errors.Load(),
	}
}
