package fleet_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/fleet"
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
	if strings.HasPrefix(url, "/") {
		url = ws.front.URL + url
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

// TestProxyRejectsWrongDigestBeforeAnyShard: the proxy forwards the
// upload it holds without staging a second copy, and still hashes it
// first — content that does not match ?digest= is the client's 400, in
// either upload form, and no shard hears of it.
func TestProxyRejectsWrongDigestBeforeAnyShard(t *testing.T) {
	ws := startWatchedShard(t)
	wrong := string(digest.FromString("what the client claims"))

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
