package containerfile

import (
	"sort"
	"strings"
	"sync"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
)

// BuildCache memoizes instruction layers across builds, keyed by the
// instruction chain — the same scheme Docker's build cache uses. A cached
// RUN also replays the toolchain invocations it recorded, so the
// hijacker's raw build log stays complete even for fully-cached builds
// (without this, coMtainer's front-end would see nothing to analyze).
type BuildCache struct {
	mu      sync.Mutex
	entries map[digest.Digest]*cacheEntry
	hits    int
	misses  int
}

// cacheEntry is one memoized instruction result: its layer and the
// descriptor it was put under (zero for an empty layer).
type cacheEntry struct {
	layer       *fsim.FS
	desc        oci.Descriptor
	invocations []hijack.Invocation
}

// NewBuildCache returns an empty build cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{entries: make(map[digest.Digest]*cacheEntry)}
}

// Stats returns the hit/miss counters.
func (c *BuildCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// get returns the cached layer for key, if any.
func (c *BuildCache) get(key digest.Digest) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// put stores an instruction result.
func (c *BuildCache) put(key digest.Digest, layer *fsim.FS, desc oci.Descriptor, invs []hijack.Invocation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = &cacheEntry{layer: layer.Clone(), desc: desc, invocations: invs}
}

// envDigest hashes the environment that instruction expansion sees, so a
// changed ENV invalidates downstream cached RUNs.
func envDigest(env map[string]string) digest.Digest {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(env[k])
		b.WriteByte('\n')
	}
	return digest.FromString(b.String())
}

// instructionKey chains the cache key forward over one instruction.
func instructionKey(parent digest.Digest, inst Instruction, env map[string]string, copySource digest.Digest) digest.Digest {
	return digest.FromString(strings.Join([]string{
		string(parent),
		inst.Cmd,
		inst.Raw,
		string(envDigest(env)),
		string(copySource),
	}, "\x00"))
}
