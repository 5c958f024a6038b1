package fleet_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// watchedShard is a one-replica shard behind a proxy whose every request
// is counted and, while down is set, refused with a 503.
type watchedShard struct {
	front *httptest.Server // the proxy
	reqs  atomic.Int64
	down  atomic.Bool
}

func startWatchedShard(t *testing.T) *watchedShard {
	t.Helper()
	ws := &watchedShard{}
	srv := registry.NewServer()
	srv.TrustReferences = true
	inner := srv.Handler()
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws.reqs.Add(1)
		if ws.down.Load() {
			http.Error(w, "shard is down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(shard.Close)
	g, err := fleet.NewShardGroup("shard", shard.URL)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fleet.NewProxy([]*fleet.ShardGroup{g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws.front = httptest.NewServer(p.Handler())
	t.Cleanup(ws.front.Close)
	return ws
}

func (ws *watchedShard) do(t *testing.T, method, url string, body io.Reader) *http.Response {
	t.Helper()
	return send(t, ws.front.URL, method, url, body)
}

// send makes one request of the server at front (a url that is a path
// is taken as under it) and returns the response, its body read.
func send(t *testing.T, front, method, url string, body io.Reader) *http.Response {
	t.Helper()
	if strings.HasPrefix(url, "/") {
		url = front + url
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// pushSession uploads content to repository app at front through an
// upload session, in parts PATCHes, finalizes it under d and returns
// the finalizing PUT's response.
func pushSession(t *testing.T, front string, content []byte, parts int, d digest.Digest) *http.Response {
	t.Helper()
	loc := send(t, front, http.MethodPost, "/v2/app/blobs/uploads/", nil).Header.Get("Location")
	for i := range parts {
		part := content[i*len(content)/parts : (i+1)*len(content)/parts]
		if resp := send(t, front, http.MethodPatch, loc, bytes.NewReader(part)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("PATCH %d of %d: %s", i+1, parts, resp.Status)
		}
	}
	return send(t, front, http.MethodPut, loc+"?digest="+string(d), nil)
}

// TestProxyRejectsWrongDigestBeforeAnyShard: content that does not
// match ?digest= is the client's 400, in either upload form. Content
// that fits one of the proxy's relay blocks, a request body or a
// session's spool, is hashed before any shard hears of it. Longer
// content goes on to the leader as it is read, its last block held back
// until the whole of it has hashed to the digest: the client gets its
// 400 with no retry, the leader sees at most that one request, cut
// short, and no replica stores, logs or acknowledges the blob.
func TestProxyRejectsWrongDigestBeforeAnyShard(t *testing.T) {
	ws := startWatchedShard(t)
	claimed := digest.FromString("what the client claims")
	wrong := string(claimed)

	resp := ws.do(t, http.MethodPost, "/v2/app/blobs/uploads/?digest="+wrong, strings.NewReader("what it sends"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("monolithic upload under a wrong digest: %s, want 400", resp.Status)
	}

	resp = ws.do(t, http.MethodPost, "/v2/app/blobs/uploads/", nil)
	loc := resp.Header.Get("Location")
	ws.do(t, http.MethodPatch, loc, strings.NewReader("what it "))
	ws.do(t, http.MethodPatch, loc, strings.NewReader("sends"))
	resp = ws.do(t, http.MethodPut, loc+"?digest="+wrong, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("session finalized under a wrong digest: %s, want 400", resp.Status)
	}
	if n := ws.reqs.Load(); n != 0 {
		t.Errorf("the shard received %d requests for uploads the proxy should have refused", n)
	}

	// Relayed content: 1 MiB under the digest of other bytes, as one
	// request's body and as a session's spool.
	content, d := randomBlob(1, 1<<20)
	for _, tc := range []struct {
		name string
		push func(t *testing.T, front string, frontLog *requestLog)
	}{
		{"body", func(t *testing.T, front string, frontLog *requestLog) {
			src := oci.NewStore()
			if _, _, err := src.Ingest(bytes.NewReader(content), d); err != nil {
				t.Fatal(err)
			}
			err := fastClient(front).PushBlob(context.Background(), "app", mislabelled{src, d}, claimed)
			if distrib.StatusCode(err) != http.StatusBadRequest {
				t.Fatalf("relayed body under a wrong digest: %v, want the proxy's 400", err)
			}
			if n := frontLog.count(func(r string) bool { return strings.HasPrefix(r, "POST ") }); n != 1 {
				t.Errorf("the client sent %d POSTs, want 1: a 400 is not retried", n)
			}
		}},
		{"session", func(t *testing.T, front string, _ *requestLog) {
			if resp := pushSession(t, front, content, 4, claimed); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("relayed session under a wrong digest: %s, want the proxy's 400", resp.Status)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leader, leaderTS, leaderLog := diskReplica(t)
			follower, followerTS, followerLog := diskReplica(t)
			wlog, wlogPath := tempLog(t)
			leader.SetCommitHook(fleet.NewReplicator(leader.Blobs(), wlog, followerTS.URL))
			g, err := fleet.NewShardGroup("shard", leaderTS.URL, followerTS.URL)
			if err != nil {
				t.Fatal(err)
			}
			p, err := fleet.NewProxy([]*fleet.ShardGroup{g}, 0)
			if err != nil {
				t.Fatal(err)
			}
			frontLog := &requestLog{}
			front := httptest.NewServer(frontLog.wrap(p.Handler()))
			t.Cleanup(front.Close)
			tc.push(t, front.URL, frontLog)
			leaderTS.Close() // each Close waits for the server's handlers to end
			followerTS.Close()
			if n := leaderLog.count(func(r string) bool { return strings.HasPrefix(r, "POST ") }); n > 1 {
				t.Errorf("the leader received %d POSTs, want at most the one relayed", n)
			}
			if n := leaderLog.read.Load(); n >= int64(len(content)) {
				t.Errorf("the leader read %d body bytes, want the request cut short of %d", n, len(content))
			}
			for name, r := range map[string]struct {
				srv *registry.Server
				log *requestLog
			}{"leader": {leader, leaderLog}, "follower": {follower, followerLog}} {
				if r.srv.Blobs().Has(d) || r.srv.Blobs().Has(claimed) {
					t.Errorf("the %s stored a blob that does not hash to its digest", name)
				}
				if n := r.log.created.Load(); n != 0 {
					t.Errorf("the %s acknowledged %d writes", name, n)
				}
				tmp, err := os.ReadDir(filepath.Join(r.srv.Blobs().(*distrib.DiskStore).Root(), "tmp"))
				if err != nil || len(tmp) != 0 {
					t.Errorf("the %s's tmp/ holds %d files (err %v), want none", name, len(tmp), err)
				}
			}
			if e := fleet.ReadLog(t, wlogPath); len(e) != 0 {
				t.Errorf("write log %+v, want nothing logged", e)
			}
		})
	}
}

// mislabelled serves the bytes of blob serves under every digest asked.
type mislabelled struct {
	distrib.BlobSource
	serves digest.Digest
}

func (s mislabelled) Open(digest.Digest) (io.ReadCloser, int64, error) {
	return s.BlobSource.Open(s.serves)
}

// TestProxyKeepsSessionWhenShardFails: the proxy pushes a session's
// spool to the shard from inside the commit, so a shard failure fails
// the commit and — like any failed commit — leaves the session open: the
// client finalizes again and nothing is uploaded twice.
func TestProxyKeepsSessionWhenShardFails(t *testing.T) {
	ws := startWatchedShard(t)
	content := bytes.Repeat([]byte("spooled once "), 1000)
	d := string(digest.FromBytes(content))

	resp := ws.do(t, http.MethodPost, "/v2/app/blobs/uploads/", nil)
	loc := resp.Header.Get("Location")
	ws.do(t, http.MethodPatch, loc, bytes.NewReader(content[:5000]))
	ws.do(t, http.MethodPatch, loc, bytes.NewReader(content[5000:]))

	ws.down.Store(true)
	if resp = ws.do(t, http.MethodPut, loc+"?digest="+d, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("finalize with the shard down: %s, want 502", resp.Status)
	}
	if resp = ws.do(t, http.MethodGet, loc, nil); resp.StatusCode != http.StatusNoContent || resp.Header.Get("Range") != "0-12999" {
		t.Fatalf("session after a failed finalize: %s, Range %q; want 204 and the whole blob committed", resp.Status, resp.Header.Get("Range"))
	}
	ws.down.Store(false)
	if resp = ws.do(t, http.MethodPut, loc+"?digest="+d, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("finalize again with the shard back: %s, want 201", resp.Status)
	}
	if resp = ws.do(t, http.MethodGet, "/v2/app/blobs/"+d, nil); resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(content)) {
		t.Errorf("blob after the retried finalize: %s, %d bytes", resp.Status, resp.ContentLength)
	}
}
