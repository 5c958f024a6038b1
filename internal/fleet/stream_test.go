package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/fleet"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// The streamed replication path: a shard leader hands each new blob to
// its followers as its own store takes it in, in one request per
// follower and with no HEAD first.

// openCounter is a blob store that counts the opens of blobs it holds.
type openCounter struct {
	distrib.Store
	opens atomic.Int64
}

func (s *openCounter) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	rc, n, err := s.Store.Open(d)
	if err == nil {
		s.opens.Add(1)
	}
	return rc, n, err
}

// streamLeader is a disk-backed fleet-member registry replicating to
// followers, logging to the write log at logPath.
type streamLeader struct {
	srv     *registry.Server
	store   *openCounter
	logPath string
	url     string
}

// startStreamLeader serves a leader whose handler is wrapped by wrap
// (nil: served as it is).
func startStreamLeader(t *testing.T, wrap func(http.Handler) http.Handler, followers ...string) *streamLeader {
	t.Helper()
	disk, err := distrib.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := &streamLeader{store: &openCounter{Store: disk}}
	wlog, logPath := tempLog(t)
	l.logPath = logPath
	l.srv = registry.NewServerWith(l.store, distrib.NewMemTags())
	l.srv.TrustReferences = true
	l.srv.SetCommitHook(fleet.NewReplicator(l.store, wlog, followers...))
	h := l.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	l.url = newQuietServer(t, h).URL
	return l
}

// randomBlob returns n seeded random bytes and their digest.
func randomBlob(seed int64, n int) ([]byte, digest.Digest) {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b, digest.FromBytes(b)
}

// TestFleetChaosStreamCutMidBlob: the leader's stream to its follower
// dies partway through, cut by a fault-injecting hop in between. The
// push still gets its 201, and only once the follower holds the bytes;
// the retry read the leader's verified copy — the one open of the blob
// on the leader — and no request probed the follower first. A seed
// spends most of its time in the replicator's retry backoff, so eight
// run at once, not -parallel's GOMAXPROCS.
func TestFleetChaosStreamCutMidBlob(t *testing.T) {
	var seeds sync.WaitGroup
	slots := make(chan struct{}, 8)
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		slots <- struct{}{}
		seeds.Add(1)
		go func() {
			defer func() { <-slots; seeds.Done() }()
			t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { streamCutMidBlob(t, seed) })
		}()
	}
	seeds.Wait()
}

func streamCutMidBlob(t *testing.T, seed int64) {
	follower, followerTS, followerLog := diskReplica(t)
	target, err := url.Parse(followerTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(seed).At(1, faultinject.Cut)
	cutter := httputil.NewSingleHostReverseProxy(target)
	cutter.Transport = faultinject.NewTransport(nil, plan)
	cutter.ErrorLog = log.New(io.Discard, "", 0)
	cutTS := newQuietServer(t, cutter)
	leader := startStreamLeader(t, nil, cutTS.URL)

	content, d := randomBlob(seed, 256<<10)
	src := oci.NewStore()
	if _, _, err := src.Ingest(bytes.NewReader(content), d); err != nil {
		t.Fatal(err)
	}
	if err := fastClient(leader.url).PushBlob(context.Background(), "app", src, d); err != nil {
		t.Fatalf("push with the follower's stream cut: %v", err)
	}
	if ev := plan.Events(); len(ev) != 1 || ev[0].Kind != faultinject.Cut {
		t.Fatalf("injected %v, want one cut", ev)
	}
	got, err := distrib.ReadBlob(follower.Blobs(), d)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("acknowledged blob on the follower: %d bytes, err %v; want the %d pushed", len(got), err, len(content))
	}
	if n := leader.store.opens.Load(); n != 1 {
		t.Errorf("the leader's copy was opened %d times, want once, by the retry", n)
	}
	if e := fleet.ReadLog(t, leader.logPath); len(e) != 1 || e[0].Kind != fleet.KindBlob || e[0].Digest != d {
		t.Errorf("write log %+v, want the one blob", e)
	}
	if n := followerLog.count(func(r string) bool { return strings.HasPrefix(r, "HEAD ") }); n != 0 {
		t.Errorf("the follower was probed %d times", n)
	}
}

// TestFleetChaosStreamWrongDigest: content that does not hash to the
// ?digest= it was pushed under is the client's 400 — not the 503 of a
// failed replication — whether or not the request declared its length,
// and neither replica keeps it or logs it.
func TestFleetChaosStreamWrongDigest(t *testing.T) {
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			follower, followerTS, _ := diskReplica(t)
			leader := startStreamLeader(t, nil, followerTS.URL)
			content, d := randomBlob(seed, 1+rand.New(rand.NewSource(seed)).Intn(256<<10))
			wrong := digest.FromString(fmt.Sprintf("not the content of seed %d", seed))

			var body io.Reader = bytes.NewReader(content)
			if seed%2 == 0 {
				body = struct{ io.Reader }{body} // no length: sent chunked
			}
			resp, err := http.Post(leader.url+"/v2/app/blobs/uploads/?digest="+string(wrong), "application/octet-stream", body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("content under a wrong digest: %s, want 400", resp.Status)
			}
			for name, s := range map[string]distrib.Store{"leader": leader.srv.Blobs(), "follower": follower.Blobs()} {
				if s.Has(d) || s.Has(wrong) {
					t.Errorf("the %s kept a blob that does not hash to its digest", name)
				}
			}
			if e := fleet.ReadLog(t, leader.logPath); len(e) != 0 {
				t.Errorf("write log %+v, want nothing logged", e)
			}
		})
	}
}

// TestFleetChaosStalledFollowerBoundedByRequest: a follower that
// accepts the stream and never reads it holds the leader only until
// the request's context ends; then the leader answers, without the
// blob.
func TestFleetChaosStalledFollowerBoundedByRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.(*net.TCPConn).SetReadBuffer(4 << 10)
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})

	const limit = 300 * time.Millisecond
	bounded := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), limit)
			defer cancel()
			h.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	leader := startStreamLeader(t, bounded, "http://"+ln.Addr().String())
	content, d := randomBlob(1, 16<<20) // more than the sockets between them hold
	start := time.Now()
	resp, err := http.Post(leader.url+"/v2/app/blobs/uploads/?digest="+string(d), "application/octet-stream", bytes.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	took := time.Since(start)
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("acknowledged a blob the follower never read")
	}
	if took > limit+5*time.Second {
		t.Errorf("the leader answered %v after the push began; its request context ended after %v", took, limit)
	}
	if leader.srv.Blobs().Has(d) {
		t.Error("the leader kept a blob it could not replicate")
	}
}
