package distrib_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// fastClient returns a client with short backoff so retry tests stay
// quick.
func fastClient(base string) *distrib.Client {
	c := distrib.NewClient(base)
	c.RetryBackoff = time.Millisecond
	return c
}

// buildTestImage writes an image with the given layer payloads and
// returns its manifest descriptor.
func buildTestImage(t *testing.T, s *oci.Store, payloads ...string) oci.Descriptor {
	t.Helper()
	var layers []*fsim.FS
	for i, p := range payloads {
		l := fsim.New()
		l.WriteFile(fmt.Sprintf("/data/l%d", i), []byte(p), 0o644)
		layers = append(layers, l)
	}
	desc, err := oci.WriteImage(s, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, layers)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// countingHandler counts blob GETs and upload POSTs by URL shape.
type countingHandler struct {
	inner    http.Handler
	blobGets atomic.Int64
	uploads  atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.URL.Path, "/blobs/") {
		switch {
		case r.Method == http.MethodGet && !strings.Contains(r.URL.Path, "/uploads"):
			h.blobGets.Add(1)
		case r.Method == http.MethodPost:
			h.uploads.Add(1)
		}
	}
	h.inner.ServeHTTP(w, r)
}

func TestClientPushPullRoundTrip(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src, "alpha", "beta", "gamma")
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "team/app", "v1"); err != nil {
		t.Fatal(err)
	}
	dst := oci.NewStore()
	got, err := c.PullImage(context.Background(), dst, "team/app", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != desc.Digest {
		t.Errorf("pulled digest %s, want %s", got.Digest.Short(), desc.Digest.Short())
	}
	for _, d := range src.Digests() {
		if !dst.Has(d) {
			t.Errorf("blob %s missing after pull", d.Short())
		}
	}
}

// TestPushDedupSkipsExistingBlobs pushes two tags of the same image:
// the second push must open zero upload sessions — every blob is
// already on the registry and the HEAD probe skips it.
func TestPushDedupSkipsExistingBlobs(t *testing.T) {
	srv := registry.NewServer()
	counter := &countingHandler{inner: srv.Handler()}
	ts := httptest.NewServer(counter)
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src, "one", "two")
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "team/app", "v1"); err != nil {
		t.Fatal(err)
	}
	first := counter.uploads.Load()
	if first == 0 {
		t.Fatal("first push uploaded nothing")
	}
	// Same blobs, different repository: the content-addressed store is
	// shared, so nothing re-uploads.
	if err := c.PushImage(context.Background(), src, desc, "other/copy", "v2"); err != nil {
		t.Fatal(err)
	}
	if counter.uploads.Load() != first {
		t.Errorf("second push opened %d new upload sessions, want 0", counter.uploads.Load()-first)
	}
}

// TestPullTransfersOnlyMissingBlobs pulls a base image, then an
// extended image sharing its layers: only the new blobs may travel.
func TestPullTransfersOnlyMissingBlobs(t *testing.T) {
	srv := registry.NewServer()
	counter := &countingHandler{inner: srv.Handler()}
	ts := httptest.NewServer(counter)
	defer ts.Close()

	src := oci.NewStore()
	base := buildTestImage(t, src, "shared-1", "shared-2", "shared-3")
	extended, err := oci.AppendLayer(src, base, fsim.New(), "comtainer.cache", "extra")
	if err != nil {
		t.Fatal(err)
	}
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, base, "app", "base"); err != nil {
		t.Fatal(err)
	}
	if err := c.PushImage(context.Background(), src, extended, "app", "extended"); err != nil {
		t.Fatal(err)
	}

	dst := oci.NewStore()
	if _, err := c.PullImage(context.Background(), dst, "app", "base"); err != nil {
		t.Fatal(err)
	}
	before := counter.blobGets.Load()
	if _, err := c.PullImage(context.Background(), dst, "app", "extended"); err != nil {
		t.Fatal(err)
	}
	fetched := counter.blobGets.Load() - before
	// The extended image shares every base layer; only its new layer
	// and new config may be fetched.
	if fetched > 2 {
		t.Errorf("extended pull fetched %d blobs, want <= 2 (base layers are local)", fetched)
	}
	if _, err := oci.LoadImage(dst, extended); err != nil {
		t.Errorf("extended image incomplete after dedup pull: %v", err)
	}
}

// TestConcurrentPullSingleflight has many goroutines pull the same
// image through one client into one store: in-flight dedup must
// collapse the fetches to one per blob.
func TestConcurrentPullSingleflight(t *testing.T) {
	srv := registry.NewServer()
	counter := &countingHandler{inner: srv.Handler()}
	ts := httptest.NewServer(counter)
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src, "l1", "l2", "l3", "l4")
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	counter.blobGets.Store(0)

	dst := oci.NewStore()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.PullImage(context.Background(), dst, "app", "v1"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 4 layers + 1 config; the manifest travels via /manifests/.
	if got := counter.blobGets.Load(); got > 5 {
		t.Errorf("16 concurrent pulls performed %d blob GETs, want <= 5 (singleflight)", got)
	}
	for _, d := range src.Digests() {
		if !dst.Has(d) {
			t.Errorf("blob %s missing", d.Short())
		}
	}
}

// TestConcurrentFetchIntoSeparateStores: in-flight dedup is keyed by
// digest, so callers fetching the same blob into different stores may
// share one transfer — but each must come back with the blob in its own
// store, not with a nil error and nothing to show for it. (PullImage
// fetches through FetchBlob, and pulls of related images into stores
// of their own share most of their layers.)
func TestConcurrentFetchIntoSeparateStores(t *testing.T) {
	srv := registry.NewServer()
	const callers = 8
	var launched sync.WaitGroup
	launched.Add(callers)
	// Hold every blob GET until all callers are under way, plus a beat
	// for the stragglers to join the first one's transfer.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/blobs/") {
			launched.Wait()
			time.Sleep(20 * time.Millisecond)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	src := oci.NewStore()
	d := src.Put([]byte("one blob, many destinations"))
	c := fastClient(ts.URL)
	if err := c.PushBlob(context.Background(), "app", src, d); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := oci.NewStore()
			launched.Done()
			if err := c.FetchBlob(context.Background(), dst, "app", oci.Descriptor{Digest: d}); err != nil {
				t.Error(err)
			} else if !dst.Has(d) {
				t.Error("FetchBlob returned nil but the caller's store does not hold the blob")
			}
		}()
	}
	wg.Wait()
}

// flakyHandler injects transient failures: the first failN blob GETs
// return 503, and the next shortN responses truncate mid-body.
type flakyHandler struct {
	inner  http.Handler
	mu     sync.Mutex
	failN  int
	shortN int
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/blobs/") && !strings.Contains(r.URL.Path, "/uploads") {
		h.mu.Lock()
		if h.failN > 0 {
			h.failN--
			h.mu.Unlock()
			http.Error(w, "injected transient failure", http.StatusServiceUnavailable)
			return
		}
		if h.shortN > 0 {
			h.shortN--
			h.mu.Unlock()
			// Declare more bytes than are sent: the client sees a
			// short read and must retry.
			w.Header().Set("Content-Length", "1024")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("truncated"))
			return
		}
		h.mu.Unlock()
	}
	h.inner.ServeHTTP(w, r)
}

func TestPullRetriesTransientFailures(t *testing.T) {
	srv := registry.NewServer()
	flaky := &flakyHandler{inner: srv.Handler(), failN: 3, shortN: 2}
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src, "r1", "r2", "r3")
	c := fastClient(ts.URL)
	c.Retries = 6
	if err := c.PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	dst := oci.NewStore()
	if _, err := c.PullImage(context.Background(), dst, "app", "v1"); err != nil {
		t.Fatalf("pull did not survive injected 503s and short reads: %v", err)
	}
	for _, d := range src.Digests() {
		if !dst.Has(d) {
			t.Errorf("blob %s missing", d.Short())
		}
	}
}

func TestPullPermanentFailureFast(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(ts.URL)
	start := time.Now()
	if _, err := c.PullImage(context.Background(), oci.NewStore(), "ghost", "v1"); err == nil {
		t.Fatal("pulled a nonexistent image")
	}
	// 404 is permanent: no retry/backoff spiral.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("permanent failure took %v — was it retried?", elapsed)
	}
}

// TestPushManifestList publishes a multi-arch index and pulls it back,
// covering the recursive index path.
func TestPushManifestList(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src := oci.NewStore()
	amd := buildTestImage(t, src, "amd-layer")
	arm := buildTestImage(t, src, "arm-layer")
	amd.Platform = &oci.Platform{Architecture: "amd64", OS: "linux"}
	arm.Platform = &oci.Platform{Architecture: "arm64", OS: "linux"}
	list, err := oci.PutJSON(src, oci.Index{SchemaVersion: 2, MediaType: oci.MediaTypeIndex, Manifests: []oci.Descriptor{amd, arm}}, oci.MediaTypeIndex)
	if err != nil {
		t.Fatal(err)
	}
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, list, "multi/app", "latest"); err != nil {
		t.Fatal(err)
	}
	dst := oci.NewStore()
	got, err := c.PullImage(context.Background(), dst, "multi/app", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != list.Digest {
		t.Errorf("pulled index digest %s, want %s", got.Digest.Short(), list.Digest.Short())
	}
	if _, err := oci.LoadImage(dst, arm); err != nil {
		t.Errorf("arm64 member image incomplete: %v", err)
	}
}

// TestPushRefusesDanglingManifest checks the client-side existence
// check: a manifest whose blobs are missing from the source fails fast
// and nothing reaches the registry.
func TestPushRefusesDanglingManifest(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src, "doomed")
	m, err := oci.LoadManifest(src, desc.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(m.Layers[0].Digest); err != nil {
		t.Fatal(err)
	}
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "app", "v1"); err == nil {
		t.Fatal("pushed an image with a missing layer")
	}
	if len(srv.Tags()) != 0 {
		t.Error("dangling manifest was tagged on the registry")
	}
}

// TestPushBlobStandalone covers PushBlob + HasBlob directly.
func TestPushBlobStandalone(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src := oci.NewStore()
	d := src.Put([]byte("standalone blob"))
	c := fastClient(ts.URL)
	if ok, err := c.HasBlob(context.Background(), "solo", d); err != nil || ok {
		t.Fatalf("HasBlob before push = %v, %v", ok, err)
	}
	if err := c.PushBlob(context.Background(), "solo", src, d); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.HasBlob(context.Background(), "solo", d); err != nil || !ok {
		t.Fatalf("HasBlob after push = %v, %v", ok, err)
	}
}

// TestPullVerifiesManifestDigest ensures a digest-addressed pull whose
// served content does not hash to the requested digest is rejected —
// simulated by a man-in-the-middle that swaps the manifest body.
func TestPullVerifiesManifestDigest(t *testing.T) {
	srv := registry.NewServer()
	tamper := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/manifests/") {
			w.Header().Set("Content-Type", oci.MediaTypeManifest)
			_, _ = w.Write([]byte(`{"schemaVersion":2,"layers":[]}`))
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(tamper)
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src, "x")
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PullImage(context.Background(), oci.NewStore(), "app", string(desc.Digest)); err == nil {
		t.Fatal("pull accepted a manifest that does not hash to the requested digest")
	}
	// An absent digest must also fail (404, no retry storm).
	bogus := digest.FromString("not the manifest")
	if _, err := c.PullImage(context.Background(), oci.NewStore(), "app", string(bogus)); err == nil {
		t.Fatal("pull by unknown digest succeeded")
	}
}

// TestFetchRejectsUnsolicitedPartialContent: a 206 is a body only in
// answer to a Range. A first attempt sends none, so a 206 there is a
// protocol error — not a prefix to keep, let alone a blob to store.
func TestFetchRejectsUnsolicitedPartialContent(t *testing.T) {
	payload := []byte(strings.Repeat("partial content ", 64))
	d := digest.FromBytes(payload)
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		if rng := r.Header.Get("Range"); rng != "" {
			t.Errorf("request carries Range %q although nothing was received", rng)
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", len(payload)-1, len(payload)))
		w.WriteHeader(http.StatusPartialContent)
		_, _ = w.Write(payload)
	}))
	defer ts.Close()

	dst := oci.NewStore()
	if err := fastClient(ts.URL).FetchBlob(context.Background(), dst, "app", oci.Descriptor{Digest: d}); err == nil {
		t.Fatal("FetchBlob accepted an unsolicited 206")
	}
	if dst.Has(d) {
		t.Fatal("an unsolicited 206 body was stored")
	}
	if n := gets.Load(); n != 1 {
		t.Fatalf("%d GETs: an unsolicited 206 is permanent, not retried", n)
	}
}

// TestBytesHelpersRoundTrip covers PushBytes and FetchBytes, the
// store-less forms of PushBlob and FetchBlob: same wire, same dedup
// probe, and the same digest verification on the way back.
func TestBytesHelpersRoundTrip(t *testing.T) {
	srv := registry.NewServer()
	counter := &countingHandler{inner: srv.Handler()}
	var tamper atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tamper.Load() && r.Method == http.MethodGet {
			_, _ = w.Write([]byte("not what was asked for"))
			return
		}
		counter.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := fastClient(ts.URL)
	c.Retries = 1
	payload := []byte("one blob, no store on either side")
	d, err := c.PushBytes(context.Background(), "app", payload)
	if err != nil || d != digest.FromBytes(payload) {
		t.Fatalf("PushBytes = %s, %v", d, err)
	}
	if _, err := c.PushBytes(context.Background(), "app", payload); err != nil || counter.uploads.Load() != 1 {
		t.Fatalf("second PushBytes: err=%v, %d uploads, want the HEAD probe to skip it", err, counter.uploads.Load())
	}
	got, err := c.FetchBytes(context.Background(), "app", d)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("FetchBytes = %q, %v", got, err)
	}
	tamper.Store(true)
	if got, err := c.FetchBytes(context.Background(), "app", d); err == nil {
		t.Fatalf("FetchBytes returned %q for content that does not hash to the digest asked for", got)
	}
}

// TestPushBlobSpendsOneRetryBudget pins what the Client.Retries doc
// promises: a push whose POST always fails is attempted Retries+1 times
// in total, each attempt the whole blob in one request, and no upload
// session is opened.
func TestPushBlobSpendsOneRetryBudget(t *testing.T) {
	inner := registry.NewServer().Handler()
	var posts, sessions atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Query().Has("digest"):
			posts.Add(1)
			http.Error(w, "disk full", http.StatusServiceUnavailable)
			return
		case r.Method != http.MethodHead:
			sessions.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	src := oci.NewStore()
	d := src.Put([]byte(strings.Repeat("never lands ", 4096)))
	c := fastClient(ts.URL)
	c.Retries = 3
	if err := c.PushBlob(context.Background(), "app", src, d); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("push against a failing POST: err=%v, want the 503", err)
	}
	if n := posts.Load(); n != int64(c.Retries)+1 {
		t.Errorf("%d POST attempts, want Retries+1 = %d", n, c.Retries+1)
	}
	if n := sessions.Load(); n != 0 {
		t.Errorf("%d session requests, want none", n)
	}
}
