// The distribution wire protocol as one black-box suite, a test per
// clause of the protocol, each run against every front-end the repo
// ships: registry.Server over its own store, and fleet.Proxy over one
// shard group of two replicas. Both mount registry.NewFrontend, so a
// clause that holds for one and not the other means a backend leaked
// into the protocol.
package registry_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// front is one started front-end under test.
type front struct {
	handler http.Handler
	url     string
	uploads *distrib.UploadManager
	wire    *wireLog
}

// wireLog records what a front-end was asked over HTTP, one "METHOD
// kind" entry per request, and can refuse requests before they reach
// it.
type wireLog struct {
	mu   sync.Mutex
	reqs []string
	// refuse, when set, is asked about every request; true answers it
	// 503 without the front-end seeing it.
	refuse func(r *http.Request) bool
}

// refuseIf installs (nil: removes) the refusal rule.
func (l *wireLog) refuseIf(fn func(r *http.Request) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refuse = fn
}

// take returns the requests recorded since the last call.
func (l *wireLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reqs
	l.reqs = nil
	return out
}

func (l *wireLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := "other"
		switch p := r.URL.Path; {
		case strings.HasSuffix(p, "/blobs/uploads/") && r.URL.Query().Get("digest") != "":
			kind = "monolithic"
		case strings.HasSuffix(p, "/blobs/uploads/"):
			kind = "start"
		case strings.Contains(p, "/blobs/uploads/"):
			kind = "session"
		case strings.Contains(p, "/blobs/"):
			kind = "blob"
		}
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+kind)
		refuse := l.refuse != nil && l.refuse(r)
		l.mu.Unlock()
		if refuse {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// targets build a fresh, empty front-end each.
var targets = []struct {
	name  string
	start func(t *testing.T) (http.Handler, *distrib.UploadManager)
}{
	{"server", func(t *testing.T) (http.Handler, *distrib.UploadManager) {
		srv := registry.NewServer()
		return srv.Handler(), srv.Uploads()
	}},
	{"proxy", func(t *testing.T) (http.Handler, *distrib.UploadManager) {
		// Leader and follower replicate to each other, as the shards
		// of comtainer-registry -fleet-member -follower do.
		var srvs []*registry.Server
		var urls []string
		for i := 0; i < 2; i++ {
			srv := registry.NewServer()
			srv.TrustReferences = true
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			srvs, urls = append(srvs, srv), append(urls, ts.URL)
		}
		srvs[0].SetCommitHook(fleet.NewReplicator(srvs[0].Blobs(), nil, urls[1]))
		srvs[1].SetCommitHook(fleet.NewReplicator(srvs[1].Blobs(), nil, urls[0]))
		g, err := fleet.NewShardGroup("shard", urls...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fleet.NewProxy([]*fleet.ShardGroup{g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p.Handler(), p.Uploads()
	}},
}

// eachFront runs fn once per target against a freshly served front-end.
func eachFront(t *testing.T, fn func(t *testing.T, f front)) {
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			h, uploads := tg.start(t)
			wire := &wireLog{}
			ts := httptest.NewServer(wire.wrap(h))
			defer ts.Close()
			fn(t, front{handler: h, url: ts.URL, uploads: uploads, wire: wire})
		})
	}
}

// do issues one request and returns the response with its body read.
func do(t *testing.T, method, url string, body io.Reader, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// putBlob seeds content with one monolithic upload.
func putBlob(t *testing.T, f front, content []byte) digest.Digest {
	t.Helper()
	d := digest.FromBytes(content)
	resp, body := do(t, http.MethodPut, f.url+"/v2/x/blobs/uploads/?digest="+string(d), bytes.NewReader(content))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seeding blob: %s: %s", resp.Status, body)
	}
	return d
}

// TestHeadManifestHeadersNoBody: HEAD /v2/<name>/manifests/<ref> must
// return the digest, type and length headers with an empty body.
func TestHeadManifestHeadersNoBody(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		src, tag := testImageRepo(t)
		if err := registry.NewClient(f.url).Push(context.Background(), src, tag, "demo", "v1"); err != nil {
			t.Fatal(err)
		}
		desc, _ := src.Resolve(tag)
		manifestBytes, _ := src.Store.Get(desc.Digest)

		resp, body := do(t, http.MethodHead, f.url+"/v2/demo/manifests/v1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD manifest: %s", resp.Status)
		}
		if got := resp.Header.Get("Docker-Content-Digest"); got != string(desc.Digest) {
			t.Errorf("Docker-Content-Digest = %q, want %q", got, desc.Digest)
		}
		if got := resp.Header.Get("Content-Type"); got != oci.MediaTypeManifest {
			t.Errorf("Content-Type = %q", got)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(manifestBytes)) {
			t.Errorf("Content-Length = %q, want %d", got, len(manifestBytes))
		}
		if len(body) != 0 {
			t.Errorf("HEAD returned %d body bytes", len(body))
		}
	})
}

// TestHeadBlobHeaders: HEAD blobs must carry digest and length so
// clients can preallocate.
func TestHeadBlobHeaders(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		content := []byte("blob with a knowable size")
		d := putBlob(t, f, content)
		resp, body := do(t, http.MethodHead, f.url+"/v2/x/blobs/"+string(d), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD blob: %s", resp.Status)
		}
		if got := resp.Header.Get("Docker-Content-Digest"); got != string(d) {
			t.Errorf("Docker-Content-Digest = %q", got)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(content)) {
			t.Errorf("Content-Length = %q, want %d", got, len(content))
		}
		if len(body) != 0 {
			t.Errorf("HEAD returned %d body bytes", len(body))
		}
	})
}

// TestGetBlobContentLengthAndRange covers explicit Content-Length on
// full GETs and 206 partial responses for Range requests.
func TestGetBlobContentLengthAndRange(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		content := []byte("0123456789abcdefghij")
		blobURL := f.url + "/v2/x/blobs/" + string(putBlob(t, f, content))
		resp, body := do(t, http.MethodGet, blobURL, nil)
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(content)) {
			t.Errorf("Content-Length = %q, want %d", got, len(content))
		}
		if !bytes.Equal(body, content) {
			t.Error("full GET content mismatch")
		}
		for _, tc := range []struct {
			rng, want, contentRange string
		}{
			{"bytes=5-9", "56789", "bytes 5-9/20"},
			{"bytes=15-", "fghij", "bytes 15-19/20"},
			{"bytes=10-99", "abcdefghij", "bytes 10-19/20"},
		} {
			resp, body := do(t, http.MethodGet, blobURL, nil, "Range", tc.rng)
			if resp.StatusCode != http.StatusPartialContent {
				t.Errorf("Range %q: status %s", tc.rng, resp.Status)
			}
			if string(body) != tc.want {
				t.Errorf("Range %q: body %q, want %q", tc.rng, body, tc.want)
			}
			if got := resp.Header.Get("Content-Range"); got != tc.contentRange {
				t.Errorf("Range %q: Content-Range %q, want %q", tc.rng, got, tc.contentRange)
			}
		}
		resp, _ = do(t, http.MethodGet, blobURL, nil, "Range", "bytes=99-")
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Errorf("out-of-bounds range: status %s", resp.Status)
		}
	})
}

// TestPutManifestRejectsMissingBlobs: a manifest referencing absent
// blobs must be rejected with 400 naming the missing digest.
func TestPutManifestRejectsMissingBlobs(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		missing := digest.FromString("never uploaded")
		manifest := fmt.Sprintf(`{"schemaVersion":2,"mediaType":%q,"config":{"mediaType":%q,"digest":%q,"size":5},"layers":[]}`,
			oci.MediaTypeManifest, oci.MediaTypeConfig, missing)
		resp, body := do(t, http.MethodPut, f.url+"/v2/app/manifests/v1", strings.NewReader(manifest), "Content-Type", oci.MediaTypeManifest)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("dangling manifest accepted: %s", resp.Status)
		}
		if !strings.Contains(string(body), string(missing)) {
			t.Errorf("400 body %q does not name the missing digest", body)
		}
		if tags, err := registry.NewClient(f.url).ListTags(context.Background(), "app"); err != nil || len(tags) != 0 {
			t.Errorf("rejected manifest was tagged: %v, %v", tags, err)
		}
	})
}

// TestResumableUpload drives the session protocol over raw HTTP: a
// chunk lands, a mis-aligned chunk is refused with 416 plus the
// committed range, the client re-queries the offset and completes.
func TestResumableUpload(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		content := []byte("the quick brown fox jumps over the lazy dog")
		d := digest.FromBytes(content)

		resp, _ := do(t, http.MethodPost, f.url+"/v2/app/blobs/uploads/", nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST upload: %s", resp.Status)
		}
		loc := f.url + resp.Header.Get("Location")

		resp, _ = do(t, http.MethodPatch, loc, bytes.NewReader(content[:16]), "Content-Range", "0-15")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("PATCH chunk 1: %s", resp.Status)
		}
		if got := resp.Header.Get("Range"); got != "0-15" {
			t.Errorf("Range after chunk 1 = %q, want 0-15", got)
		}

		// Simulate an interrupted transfer: the client re-sends from the
		// wrong offset and must get 416 with the committed range.
		resp, _ = do(t, http.MethodPatch, loc, bytes.NewReader(content[20:]), "Content-Range", fmt.Sprintf("20-%d", len(content)-1))
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("mis-aligned PATCH: %s, want 416", resp.Status)
		}
		if got := resp.Header.Get("Range"); got != "0-15" {
			t.Errorf("416 Range = %q, want 0-15", got)
		}
		resp, _ = do(t, http.MethodPatch, loc, bytes.NewReader(content[16:]), "Content-Range", "bytes sixteen-")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed Content-Range: %s, want 400", resp.Status)
		}

		// Recover the offset via GET, resume from it.
		resp, _ = do(t, http.MethodGet, loc, nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("GET session: %s", resp.Status)
		}
		rng := resp.Header.Get("Range")
		var end int
		if _, err := fmt.Sscanf(rng, "0-%d", &end); err != nil {
			t.Fatalf("unparseable session range %q", rng)
		}
		offset := end + 1
		resp, _ = do(t, http.MethodPatch, loc, bytes.NewReader(content[offset:]), "Content-Range", fmt.Sprintf("%d-%d", offset, len(content)-1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("resumed PATCH: %s", resp.Status)
		}

		resp, _ = do(t, http.MethodPut, loc+"?digest="+string(d), nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT finalize: %s", resp.Status)
		}
		if got := resp.Header.Get("Docker-Content-Digest"); got != string(d) {
			t.Errorf("finalize digest = %q", got)
		}
		if resp, body := do(t, http.MethodGet, f.url+"/v2/app/blobs/"+string(d), nil); resp.StatusCode != http.StatusOK || !bytes.Equal(body, content) {
			t.Errorf("blob after resumable upload: %s, %q", resp.Status, body)
		}
		if resp, _ := do(t, http.MethodGet, loc, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("finalized session still answers: %s", resp.Status)
		}
	})
}

// TestUploadFinalizeRejectsBadDigest: a session whose content does not
// hash to the declared digest must fail the PUT.
func TestUploadFinalizeRejectsBadDigest(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		resp, _ := do(t, http.MethodPost, f.url+"/v2/app/blobs/uploads/", nil)
		loc := f.url + resp.Header.Get("Location")
		do(t, http.MethodPatch, loc, strings.NewReader("actual bytes"))
		resp, _ = do(t, http.MethodPut, loc+"?digest="+string(digest.FromString("other bytes")), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("mismatched finalize: %s, want 400", resp.Status)
		}
	})
}

// TestBlobUploadRejectsBadDigest: the same for a monolithic upload.
func TestBlobUploadRejectsBadDigest(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		resp, _ := do(t, http.MethodPut, f.url+"/v2/x/blobs/uploads?digest=sha256:"+strings.Repeat("0", 64),
			strings.NewReader("content that does not match"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("mismatched digest: %s, want 400", resp.Status)
		}
	})
}

// lyingSource serves the bytes of one blob under every digest asked.
type lyingSource struct {
	*oci.Store
	serves digest.Digest
}

func (s lyingSource) Open(digest.Digest) (io.ReadCloser, int64, error) { return s.Store.Open(s.serves) }

// TestPushBlobRequests: what distrib.Client.PushBlob puts on the wire.
// A blob that fits one chunk costs the existence probe and a single
// monolithic POST; a larger one goes through a resumable session, one
// PATCH per chunk. Either way the registry ends up with the bytes.
func TestPushBlobRequests(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		ctx := context.Background()
		c := distrib.NewClient(f.url)
		c.ChunkSize = 16
		c.RetryBackoff = time.Millisecond
		src := oci.NewStore()
		push := func(content string) ([]string, error) {
			t.Helper()
			d := src.Put([]byte(content))
			f.wire.take()
			err := c.PushBlob(ctx, "app", src, d)
			reqs := f.wire.take()
			if err == nil {
				if resp, body := do(t, http.MethodGet, f.url+"/v2/app/blobs/"+string(d), nil); resp.StatusCode != http.StatusOK || string(body) != content {
					t.Errorf("blob %q after push: %s, %q", content, resp.Status, body)
				}
			}
			return reqs, err
		}
		oneRequest := "HEAD blob, POST monolithic"
		for _, tc := range []struct{ name, content, want string }{
			{"empty", "", oneRequest},
			{"under a chunk", "fits one chunk", oneRequest},
			{"exactly a chunk", "sixteen bytes ..", oneRequest},
			{"a chunk and a byte", "seventeen bytes .", "HEAD blob, POST start, PATCH session, PATCH session, PUT session"},
			{"two and a half chunks", "forty bytes make two and a half chunks ..", "HEAD blob, POST start, PATCH session, PATCH session, PATCH session, PUT session"},
		} {
			reqs, err := push(tc.content)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got := strings.Join(reqs, ", "); got != tc.want {
				t.Errorf("%s (%d bytes): requests %q, want %q", tc.name, len(tc.content), got, tc.want)
			}
		}

		// A 5xx on the monolithic POST is a transient failure: retried,
		// as a whole, since there is no session to resume.
		refused := false
		f.wire.refuseIf(func(r *http.Request) bool {
			first := r.Method == http.MethodPost && !refused
			refused = refused || first
			return first
		})
		reqs, err := push("through outage")
		if got := strings.Join(reqs, ", "); err != nil || got != "HEAD blob, POST monolithic, POST monolithic" {
			t.Errorf("outage on the monolithic POST: %v, requests %q, want one retry", err, got)
		}
		f.wire.refuseIf(nil)

		// Bytes that do not hash to the digest in the URL are the
		// server's 400, which no retry will cure.
		honest := src.Put([]byte("bytes named"))
		other := src.Put([]byte("bytes served"))
		f.wire.take()
		err = c.PushBlob(ctx, "app", lyingSource{src, other}, honest)
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("push of mismatching bytes: %v, want the server's 400", err)
		}
		if got := strings.Join(f.wire.take(), ", "); got != oneRequest {
			t.Errorf("push of mismatching bytes: requests %q, want %q (no retry)", got, oneRequest)
		}
		if resp, _ := do(t, http.MethodHead, f.url+"/v2/app/blobs/"+string(honest), nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("mismatching bytes were stored: HEAD %s", resp.Status)
		}
	})
}

// TestUploadSessionExpires: a session idle past the upload TTL is
// swept when the next one starts — whichever front-end spools it.
func TestUploadSessionExpires(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		var idle atomic.Int64 // the clock, as nanoseconds past an arbitrary start
		f.uploads.Now = func() time.Time { return time.Unix(1_700_000_000, idle.Load()) }
		f.uploads.TTL = time.Hour

		resp, _ := do(t, http.MethodPost, f.url+"/v2/app/blobs/uploads/", nil)
		abandoned := f.url + resp.Header.Get("Location")
		do(t, http.MethodPatch, abandoned, strings.NewReader("bytes nobody will finalize"))

		idle.Add(int64(59 * time.Minute))
		do(t, http.MethodPost, f.url+"/v2/app/blobs/uploads/", nil)
		if resp, _ := do(t, http.MethodGet, abandoned, nil); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("session inside its TTL: %s, want 204", resp.Status)
		}
		// That GET refreshed the idle timer; an hour on, both sessions
		// so far are stale and the next start sweeps them.
		idle.Add(int64(61 * time.Minute))
		do(t, http.MethodPost, f.url+"/v2/app/blobs/uploads/", nil)
		if resp, _ := do(t, http.MethodGet, abandoned, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("session idle past its TTL: %s, want 404", resp.Status)
		}
		if n := f.uploads.Len(); n != 1 {
			t.Errorf("%d live sessions, want only the one just started", n)
		}
	})
}

// TestUploadStopsWhenClientGone: once the request context is done the
// front-end stops reading the body instead of spooling it.
func TestUploadStopsWhenClientGone(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		resp, _ := do(t, http.MethodPost, f.url+"/v2/app/blobs/uploads/", nil)
		loc := resp.Header.Get("Location")

		gone, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPatch, loc, strings.NewReader("bytes from a client that left")).WithContext(gone)
		f.handler.ServeHTTP(httptest.NewRecorder(), req)

		resp, _ = do(t, http.MethodGet, f.url+loc, nil)
		if got := resp.Header.Get("Range"); got != "0-0" {
			t.Errorf("session Range = %q after a cancelled PATCH, want 0-0", got)
		}
	})
}

// TestUploadSessionBounded: a session holds at most oci.MaxBlobSize
// bytes, the most a client pulls back. A chunk declaring a length that
// would take it past is refused with 413 — on a PATCH and as the
// trailing chunk of the finalizing PUT — before a byte of it is read.
// The requests declare the length and carry a short body, so they go to
// the handler directly.
func TestUploadSessionBounded(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		resp, _ := do(t, http.MethodPost, f.url+"/v2/app/blobs/uploads/", nil)
		loc := resp.Header.Get("Location")
		if resp, _ := do(t, http.MethodPatch, f.url+loc, strings.NewReader("a"), "Content-Range", "0-0"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("1-byte PATCH: %s", resp.Status)
		}
		for _, target := range []string{loc, loc + "?digest=" + string(digest.FromString("ab"))} {
			method := http.MethodPatch
			if target != loc {
				method = http.MethodPut
			}
			req := httptest.NewRequest(method, target, strings.NewReader("b"))
			req.ContentLength = oci.MaxBlobSize
			rec := httptest.NewRecorder()
			f.handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s declaring %d bytes after 1: %d, want 413", method, int64(oci.MaxBlobSize), rec.Code)
			}
			if resp, _ := do(t, http.MethodGet, f.url+loc, nil); resp.Header.Get("Range") != "0-0" {
				t.Errorf("session Range = %q after a refused %s, want 0-0", resp.Header.Get("Range"), method)
			}
		}
		// The session is where it was: the next byte goes at offset 1.
		resp, _ = do(t, http.MethodPatch, f.url+loc, strings.NewReader("b"), "Content-Range", "1-1")
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Range") != "0-1" {
			t.Errorf("PATCH at offset 1: %s, Range %q, want 202 and 0-1", resp.Status, resp.Header.Get("Range"))
		}
	})
}

func TestManifestByDigest(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		src, tag := testImageRepo(t)
		if err := registry.NewClient(f.url).Push(context.Background(), src, tag, "demo", "latest"); err != nil {
			t.Fatal(err)
		}
		desc, _ := src.Resolve(tag)
		resp, _ := do(t, http.MethodGet, f.url+"/v2/demo/manifests/"+string(desc.Digest), nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET by digest: %s", resp.Status)
		}
	})
}

// TestBadRoutes: what is not in the path grammar, not stored, or not a
// method of the resource is refused with the status that says which.
func TestBadRoutes(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		content := []byte("sent with the wrong method")
		d := string(digest.FromBytes(content))
		for _, tc := range []struct {
			method, path string
			want         int
		}{
			{http.MethodGet, "/v2/onlyname", http.StatusNotFound},
			{http.MethodGet, "/v2/x/blobs/not-a-digest", http.StatusBadRequest},
			{http.MethodGet, "/v2/x/blobs/" + d, http.StatusNotFound},
			{http.MethodHead, "/v2/x/blobs/" + d, http.StatusNotFound},
			{http.MethodGet, "/v2/x/manifests/ghost", http.StatusNotFound},
			{http.MethodHead, "/v2/x/manifests/ghost", http.StatusNotFound},
			{http.MethodDelete, "/v2/x/manifests/ghost", http.StatusMethodNotAllowed},
			{http.MethodGet, "/v2/x/blobs/uploads/no-such-session", http.StatusNotFound},
			{http.MethodGet, "/v2/x/blobs/uploads/", http.StatusMethodNotAllowed},
			// ?digest= makes a monolithic upload of POST and PUT only.
			{http.MethodPatch, "/v2/x/blobs/uploads/?digest=" + d, http.StatusMethodNotAllowed},
			{http.MethodDelete, "/v2/x/blobs/uploads/?digest=" + d, http.StatusMethodNotAllowed},
		} {
			resp, _ := do(t, tc.method, f.url+tc.path, bytes.NewReader(content))
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: %s, want %d", tc.method, tc.path, resp.Status, tc.want)
			}
		}
		if resp, _ := do(t, http.MethodHead, f.url+"/v2/x/blobs/"+d, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("a refused upload stored its body: HEAD %s", resp.Status)
		}
	})
}

func TestListTags(t *testing.T) {
	eachFront(t, func(t *testing.T, f front) {
		client := registry.NewClient(f.url)
		src, tag := testImageRepo(t)
		for _, v := range []string{"v1", "v2", "latest"} {
			if err := client.Push(context.Background(), src, tag, "team/app", v); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Push(context.Background(), src, tag, "other/thing", "v9"); err != nil {
			t.Fatal(err)
		}
		tags, err := client.ListTags(context.Background(), "team/app")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"latest", "v1", "v2"}
		if len(tags) != 3 || tags[0] != want[0] || tags[1] != want[1] || tags[2] != want[2] {
			t.Errorf("tags = %v, want %v", tags, want)
		}
		empty, err := client.ListTags(context.Background(), "nobody/nothing")
		if err != nil || len(empty) != 0 {
			t.Errorf("empty repo tags = %v, %v", empty, err)
		}
	})
}

// TestRestartPersistence: push to a disk-backed registry, tear the
// server down, reopen the same directory, and pull — the acceptance
// path for `comtainer-registry -data`.
func TestRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	srv1, err := registry.NewServerAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	src, tag := testImageRepo(t)
	if err := registry.NewClient(ts1.URL).Push(context.Background(), src, tag, "user/demo", "v1"); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // registry process dies

	srv2, err := registry.NewServerAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got := srv2.Tags(); len(got) != 1 || got[0] != "user/demo:v1" {
		t.Fatalf("tags after restart = %v", got)
	}
	dst := oci.NewRepository()
	if err := registry.NewClient(ts2.URL).Pull(context.Background(), dst, "user/demo", "v1", "demo.pulled"); err != nil {
		t.Fatal(err)
	}
	srcDesc, _ := src.Resolve(tag)
	dstDesc, _ := dst.Resolve("demo.pulled")
	if srcDesc.Digest != dstDesc.Digest {
		t.Error("manifest digest changed across registry restart")
	}
	img, err := dst.LoadByTag("demo.pulled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.Flatten(); err != nil {
		t.Errorf("pulled image does not flatten: %v", err)
	}
}

// TestConcurrentPushPullSharedImage hammers one disk-backed server
// with parallel pushes and pulls of the same image (run under -race
// via scripts/check.sh).
func TestConcurrentPushPullSharedImage(t *testing.T) {
	srv, err := registry.NewServerAt(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	src, tag := testImageRepo(t)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := registry.NewClient(ts.URL)
			c.Workers = 3
			// Everyone pushes the same image under the same name…
			if err := c.Push(context.Background(), src, tag, "shared/app", "v1"); err != nil {
				errs <- err
				return
			}
			// …and pulls it back into a private store.
			dst := oci.NewRepository()
			if err := c.Pull(context.Background(), dst, "shared/app", "v1", "local"); err != nil {
				errs <- err
				return
			}
			want, _ := src.Resolve(tag)
			got, err := dst.Resolve("local")
			if err != nil || got.Digest != want.Digest {
				errs <- fmt.Errorf("worker %d: digest mismatch: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sweepingStore runs a GC sweep the moment a blob is stored — the worst
// place a sweep can land in a commit.
type sweepingStore struct {
	distrib.Store
	sweep func()
}

func (s *sweepingStore) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	d, n, err := s.Store.Ingest(r, want)
	if err == nil {
		s.sweep()
	}
	return d, n, err
}

// TestGCSweepBetweenStoreAndPin: a blob or manifest is pinned before the
// store holds it, so a sweep that finds it there — stored, not yet
// referenced by any tag — keeps it, and the push it belongs to ends with
// a pullable image rather than a tag over a collected manifest.
func TestGCSweepBetweenStoreAndPin(t *testing.T) {
	store := &sweepingStore{Store: oci.NewStore()}
	srv := registry.NewServerWith(store, distrib.NewMemTags())
	store.sweep = func() {
		if _, err := srv.GC(); err != nil {
			t.Errorf("gc: %v", err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	src, tag := testImageRepo(t)
	client := registry.NewClient(ts.URL)
	if err := client.Push(context.Background(), src, tag, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := client.Pull(context.Background(), oci.NewRepository(), "app", "v1", "x"); err != nil {
		t.Errorf("image pushed across the sweeps does not pull back: %v", err)
	}
}

// TestServerGC: unreachable blobs are dropped, tagged images survive
// and remain pullable.
func TestServerGC(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	src, tag := testImageRepo(t)
	client := registry.NewClient(ts.URL)
	if err := client.Push(context.Background(), src, tag, "keep/app", "v1"); err != nil {
		t.Fatal(err)
	}
	orphan, _, err := srv.Blobs().Ingest(strings.NewReader("orphaned blob"), "")
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := srv.GC()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if srv.Blobs().Has(orphan) {
		t.Error("orphan survived GC")
	}
	dst := oci.NewRepository()
	if err := client.Pull(context.Background(), dst, "keep/app", "v1", "x"); err != nil {
		t.Errorf("tagged image unpullable after GC: %v", err)
	}
}
