package fleet_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"

	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// diskReplica serves a fleet-member registry over a disk blob store
// with the in-memory upload spool — what the benchmark's fleet runs.
func diskReplica(t *testing.T) (*registry.Server, *httptest.Server) {
	t.Helper()
	blobs, err := distrib.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := registry.NewServerWith(blobs, distrib.NewMemTags())
	srv.TrustReferences = true
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestPushThroughFleetAllocatesBlobOncePerHop is the push half of the
// ownership rule (DESIGN.md §2, "Blob bytes in transit") as a number.
// Client → proxy → leader → follower, the stores on disk: the client
// streams from its store, and
// each of the three servers holds an upload session's bytes once, in
// the spool the PATCHes filled — so a blob of more than one chunk costs
// three times its size, where regrown spool buffers, the proxy's
// staging store and a chunk buffer per hop made it about twenty. A blob
// of one chunk or less goes in one request, which only the proxy reads
// into memory: once.
func TestPushThroughFleetAllocatesBlobOncePerHop(t *testing.T) {
	for _, size := range []int{64 << 10, 1<<20 + 1, 5 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			leader, leaderTS := diskReplica(t)
			_, followerTS := diskReplica(t)
			leader.SetCommitHook(fleet.NewReplicator(leader.Blobs(), nil, followerTS.URL))
			group, err := fleet.NewShardGroup("shard1", leaderTS.URL, followerTS.URL)
			if err != nil {
				t.Fatal(err)
			}
			proxy, err := fleet.NewProxy([]*fleet.ShardGroup{group}, 0)
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(proxy.Handler())
			defer front.Close()

			payload := make([]byte, size)
			rand.New(rand.NewSource(int64(size))).Read(payload)
			layer := fsim.New()
			layer.WriteFile("/data/payload", payload, 0o644)
			src := oci.NewRepository()
			desc, err := oci.WriteImage(src.Store, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, []*fsim.FS{layer})
			if err != nil {
				t.Fatal(err)
			}
			src.Tag("v1", desc)
			blobBytes := src.Store.TotalSize()

			c := registry.NewClient(front.URL)
			c.Workers = 1
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := c.Push(context.Background(), src, "v1", "app", "v1"); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc

			// A push is some forty HTTP exchanges across the three hops
			// (HEAD probes, sessions, manifest fan-out), each with its
			// headers and buffers whatever the blob's size.
			const overhead = 1 << 20
			budget := uint64(blobBytes)*7/2 + overhead
			t.Logf("push of %d blob bytes allocated %d (%.2fx)", blobBytes, got, float64(got)/float64(blobBytes))
			if got > budget {
				t.Errorf("push of %d blob bytes allocated %d, budget %d (3.5x + %d)", blobBytes, got, budget, overhead)
			}
			for _, ts := range []*httptest.Server{leaderTS, followerTS} {
				ok, err := distrib.NewClient(ts.URL).HasBlob(context.Background(), "app", desc.Digest)
				if err != nil || !ok {
					t.Errorf("replica %s does not hold the pushed manifest (err=%v)", ts.URL, err)
				}
			}
		})
	}
}
