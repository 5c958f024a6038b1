package fleet_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// diskReplica serves a fleet-member registry over a disk blob store
// with the in-memory upload spool — what the benchmark's fleet runs —
// and logs every request it receives.
func diskReplica(t *testing.T) (*registry.Server, *httptest.Server, *requestLog) {
	t.Helper()
	blobs, err := distrib.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := registry.NewServerWith(blobs, distrib.NewMemTags())
	srv.TrustReferences = true
	log := &requestLog{}
	ts := httptest.NewServer(log.wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	return srv, ts, log
}

// requestLog records "METHOD path?query" of each request a handler
// serves.
type requestLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+r.URL.RequestURI())
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// count returns how many logged requests match.
func (l *requestLog) count(match func(string) bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.reqs {
		if match(r) {
			n++
		}
	}
	return n
}

// TestPushThroughFleetAllocatesBlobOncePerHop is the push half of the
// ownership rule (DESIGN.md §2, "Blob bytes in transit") as a number.
// Client → proxy → leader → follower, the stores on disk: the client
// streams from its store, and only the proxy holds the blob in memory,
// in the spool the client's PATCHes filled. Each intra-fleet hop is one
// request whose body the replica streams into its store, so a push
// costs about the blob's size once; with a spool per hop it cost three
// times that, and with regrown spool buffers, the proxy's staging store
// and a chunk buffer per hop about twenty.
func TestPushThroughFleetAllocatesBlobOncePerHop(t *testing.T) {
	for _, size := range []int{64 << 10, 1<<20 + 1, 5 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			leader, leaderTS, leaderLog := diskReplica(t)
			_, followerTS, followerLog := diskReplica(t)
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

			// A push is some twenty HTTP exchanges across the three hops
			// (HEAD probes, the client's session, manifest fan-out), each
			// with its headers and buffers whatever the blob's size.
			const overhead = 1 << 20
			budget := uint64(blobBytes)*3/2 + overhead
			t.Logf("push of %d blob bytes allocated %d (%.2fx)", blobBytes, got, float64(got)/float64(blobBytes))
			if got > budget {
				t.Errorf("push of %d blob bytes allocated %d, budget %d (1.5x + %d)", blobBytes, got, budget, overhead)
			}
			for _, ts := range []*httptest.Server{leaderTS, followerTS} {
				ok, err := distrib.NewClient(ts.URL).HasBlob(context.Background(), "app", desc.Digest)
				if err != nil || !ok {
					t.Errorf("replica %s does not hold the pushed manifest (err=%v)", ts.URL, err)
				}
			}

			// The client's 5 MiB went to the proxy in PATCHes; each
			// replica got the layer in one request.
			m, err := oci.LoadManifest(src.Store, desc.Digest)
			if err != nil {
				t.Fatal(err)
			}
			layer0 := string(m.Layers[0].Digest)
			for name, log := range map[string]*requestLog{"leader": leaderLog, "follower": followerLog} {
				writes := log.count(func(r string) bool {
					return strings.HasPrefix(r, "POST ") && strings.HasSuffix(r, "/blobs/uploads/?digest="+layer0)
				})
				patches := log.count(func(r string) bool { return strings.HasPrefix(r, "PATCH ") })
				if writes != 1 || patches != 0 {
					t.Errorf("%s: %d single-request writes of the layer and %d PATCHes, want 1 and 0", name, writes, patches)
				}
			}
		})
	}
}
