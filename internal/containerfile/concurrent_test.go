package containerfile

import (
	"fmt"
	"runtime"
	"testing"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
)

// hammer runs each op n times in a goroutine of its own, all at once,
// and waits for them. An op's goroutine synchronizes only through the
// mutex its op takes, so under -race an op that reads or writes shared
// state without its lock races with the others. Each goroutine yields
// after every op, so the goroutines interleave even on one CPU: runs in
// which one goroutine finished before another began reported nothing.
func hammer(n int, ops ...func()) {
	cachekit.Parallel(len(ops), 0, func(i int) error {
		for range n {
			ops[i]()
			runtime.Gosched()
		}
		return nil
	})
}

// TestBuildCacheConcurrentUse: one BuildCache serves builds that run at
// once (a registry's users, bench's concurrent publishes). Meant for
// -race, which reports a method whose access to the entries or the
// counters is not under c.mu.
func TestBuildCacheConcurrentUse(t *testing.T) {
	c := NewBuildCache()
	layer := fsim.New()
	layer.WriteFile("/out", []byte("o"), 0o644)
	k := func(i int) digest.Digest { return digest.FromString(fmt.Sprint("instruction ", i%16)) }
	g, p := 0, 0
	get := func() { c.get(k(g)); g++ }
	put := func() { c.put(k(p), layer, oci.Descriptor{}, nil); p++ }
	stats := func() { c.Stats() }
	hammer(100, get, put)
	hammer(100, stats, get)
	if hits, misses := c.Stats(); hits+misses != 200 {
		t.Errorf("%d hits + %d misses, want 200 lookups", hits, misses)
	}
}
