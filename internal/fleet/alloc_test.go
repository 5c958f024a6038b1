package fleet_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// diskReplica serves a fleet-member registry over a disk blob store —
// what the benchmark's fleet runs — and logs every request it receives.
func diskReplica(t *testing.T) (*registry.Server, *quietServer, *requestLog) {
	t.Helper()
	blobs, err := distrib.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := registry.NewServerWith(blobs, distrib.NewMemTags())
	srv.TrustReferences = true
	log := &requestLog{}
	return srv, newQuietServer(t, log.wrap(srv.Handler())), log
}

// requestLog records "METHOD path?query" of each request a handler
// serves, counts the body bytes it read and the requests it answered
// 201.
type requestLog struct {
	mu      sync.Mutex
	reqs    []string
	read    atomic.Int64
	created atomic.Int64
}

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+r.URL.RequestURI())
		l.mu.Unlock()
		r.Body = countingBody{r.Body, &l.read}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		if sw.status == http.StatusCreated {
			l.created.Add(1)
		}
	})
}

// countingBody adds the bytes read from a request body to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// statusWriter remembers the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

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
// streams from its store in one request, the proxy relays the body as
// it arrives through two pooled blocks, and each replica streams it
// into its store, so no hop holds the blob in memory and a push costs
// a fixed allowance whatever the blob's size. When the proxy spooled the
// client's PATCHes it cost about the blob's size once; with a spool per
// hop three times that, and with regrown spool buffers, the proxy's
// staging store and a chunk buffer per hop about twenty.
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
			frontLog := &requestLog{}
			front := httptest.NewServer(frontLog.wrap(proxy.Handler()))
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

			// A push is some fifteen HTTP exchanges across the three hops
			// (HEAD probes, the blob POSTs, manifest fan-out), each with
			// its headers and buffers whatever the blob's size: about
			// 0.7 MB measured (0.9 MB under -race). A quarter of the blob
			// on top leaves that slack at every size and still fails a
			// hop that holds a copy of a 1 MiB or 5 MiB blob.
			const overhead = 1 << 20
			budget := uint64(blobBytes)/4 + overhead
			t.Logf("push of %d blob bytes allocated %d (%.2fx)", blobBytes, got, float64(got)/float64(blobBytes))
			if got > budget {
				t.Errorf("push of %d blob bytes allocated %d, budget %d (0.25x + %d)", blobBytes, got, budget, overhead)
			}
			for _, ts := range []*quietServer{leaderTS, followerTS} {
				ok, err := distrib.NewClient(ts.URL).HasBlob(context.Background(), "app", desc.Digest)
				if err != nil || !ok {
					t.Errorf("replica %s does not hold the pushed manifest (err=%v)", ts.URL, err)
				}
			}

			// The layer went up in one request on every hop — to the
			// proxy, the leader and the follower — and the follower got
			// it streamed as the leader stored it, with no probe first.
			m, err := oci.LoadManifest(src.Store, desc.Digest)
			if err != nil {
				t.Fatal(err)
			}
			layer0 := string(m.Layers[0].Digest)
			for name, log := range map[string]*requestLog{"proxy": frontLog, "leader": leaderLog, "follower": followerLog} {
				writes := log.count(func(r string) bool {
					return strings.HasPrefix(r, "POST ") && strings.HasSuffix(r, "/blobs/uploads/?digest="+layer0)
				})
				patches := log.count(func(r string) bool { return strings.HasPrefix(r, "PATCH ") })
				if writes != 1 || patches != 0 {
					t.Errorf("%s: %d single-request writes of the layer and %d PATCHes, want 1 and 0", name, writes, patches)
				}
			}
			if heads := followerLog.count(func(r string) bool { return r == "HEAD /v2/fleet-replication/blobs/"+layer0 }); heads != 0 {
				t.Errorf("follower: %d HEADs of the layer, want 0", heads)
			}
		})
	}
}
