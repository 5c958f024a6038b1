package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

func liveTracer() *tracer {
	tr := newTracer()
	tr.on.Store(true)
	return tr
}

func TestTracedStoreIsTransparent(t *testing.T) {
	inner, tr := oci.NewStore(), liveTracer()
	s := &tracedStore{inner: inner, tr: tr}
	content := []byte("layer bytes")
	want := digest.FromBytes(content)

	d, n, err := s.Ingest(bytes.NewReader(content), want)
	if err != nil || d != want || n != int64(len(content)) {
		t.Fatalf("Ingest = %v, %d, %v", d, n, err)
	}
	if !s.Has(want) || !inner.Has(want) {
		t.Fatal("ingested blob not visible through both stores")
	}
	rc, size, err := s.Open(want)
	if err != nil || size != int64(len(content)) {
		t.Fatalf("Open = %d, %v", size, err)
	}
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.Digests()) != 1 {
		t.Fatalf("Digests = %v", s.Digests())
	}

	// Errors come back exactly as the inner store made them.
	missing := digest.FromString("absent")
	_, _, innerErr := inner.Open(missing)
	_, _, err = s.Open(missing)
	if err == nil || err.Error() != innerErr.Error() || !errors.Is(err, oci.ErrBlobNotFound) {
		t.Fatalf("Open(missing) = %v, inner says %v", err, innerErr)
	}
	if _, _, err := s.Ingest(strings.NewReader("other"), want); err == nil {
		t.Fatal("Ingest accepted content that does not match its digest")
	}
	if err := s.Delete(want); err != nil || inner.Has(want) {
		t.Fatalf("Delete = %v, still there: %v", err, inner.Has(want))
	}

	a := tr.aggregate()
	if a.n["distrib.store_ingest"] != 2 || a.n["distrib.store_open"] != 2 || a.counts["distrib.store_has"] != 1 {
		t.Errorf("recorded %v %v", a.n, a.counts)
	}
}

// failingCache fails every call with a fixed error.
type failingCache struct{ err error }

func (c failingCache) Get(digest.Digest) ([]byte, bool, error) { return nil, false, c.err }
func (c failingCache) Put(digest.Digest, []byte) error         { return c.err }
func (c failingCache) Stats() actioncache.Stats                { return actioncache.Stats{Errors: 7} }

func TestTracedCacheIsTransparent(t *testing.T) {
	disk, err := actioncache.NewDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := liveTracer()
	c := &tracedCache{inner: disk, tr: tr}
	key, val := digest.FromString("key"), []byte("recorded outputs")
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("Get before Put = %v, %v", ok, err)
	}
	if err := c.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if !ok || err != nil || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	if c.Stats() != disk.Stats() {
		t.Errorf("Stats = %+v, inner %+v", c.Stats(), disk.Stats())
	}

	boom := errors.New("tier down")
	f := &tracedCache{inner: failingCache{boom}, tr: tr}
	if _, _, err := f.Get(key); err != boom {
		t.Errorf("Get error = %v", err)
	}
	if err := f.Put(key, val); err != boom {
		t.Errorf("Put error = %v", err)
	}
	if f.Stats().Errors != 7 {
		t.Errorf("Stats = %+v", f.Stats())
	}

	a := tr.aggregate()
	if a.n["actioncache.get"] != 3 || a.n["actioncache.put"] != 2 || a.counts["actioncache.put_bytes"] != float64(2*len(val)) {
		t.Errorf("recorded %v %v", a.n, a.counts)
	}
}

// echo answers with the request's method, a header and its body.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	w.Header().Set("X-Echo", r.Header.Get("X-Ask"))
	if r.URL.Path == "/missing" {
		http.Error(w, "no such thing", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	io.WriteString(w, r.Method+":")
	w.Write(body)
}

func TestTracedTransportIsTransparent(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(echo))
	defer ts.Close()
	tr := liveTracer()
	for _, hc := range []*http.Client{http.DefaultClient, tracedClient(tr)} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/thing", strings.NewReader("payload"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Ask", "answer")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || string(body) != "PUT:payload" || resp.Header.Get("X-Echo") != "answer" {
			t.Fatalf("got %d %q %q, %v", resp.StatusCode, body, resp.Header.Get("X-Echo"), err)
		}
	}
	resp, err := tracedClient(tr).Get(ts.URL + "/missing")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("404 became %v, %v", resp, err)
	}
	if msg, _ := io.ReadAll(resp.Body); string(msg) != "no such thing\n" {
		t.Errorf("404 body %q", msg)
	}
	resp.Body.Close()

	// A transport error is the caller's to see, and is counted.
	dead := httptest.NewServer(http.HandlerFunc(echo))
	dead.Close()
	_, plainErr := http.Get(dead.URL)
	_, err = tracedClient(tr).Get(dead.URL)
	if err == nil || plainErr == nil || err.Error() != plainErr.Error() {
		t.Fatalf("error through the interposer %v, without %v", err, plainErr)
	}
	a := tr.aggregate()
	if a.n["distrib.client_req"] != 3 || a.counts["distrib.client_err"] != 1 {
		t.Errorf("recorded %v %v", a.n, a.counts)
	}
	if want := float64(len("payload") + len("PUT:payload") + len("no such thing\n")); a.counts["distrib.client_wire_bytes"] != want {
		t.Errorf("wire bytes = %v, want %v", a.counts["distrib.client_wire_bytes"], want)
	}
}

func TestTracedHandlerIsTransparent(t *testing.T) {
	tr := liveTracer()
	wrapped := &tracedHandler{inner: http.HandlerFunc(echo), tr: tr, classify: always("remoteexec.data"), bytesName: "remoteexec.data_bytes"}
	for _, path := range []string{"/thing", "/missing"} {
		var recs [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{http.HandlerFunc(echo), wrapped} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("payload"))
			req.Header.Set("X-Ask", "answer")
			recs[i] = httptest.NewRecorder()
			h.ServeHTTP(recs[i], req)
		}
		plain, traced := recs[0], recs[1]
		if plain.Code != traced.Code || plain.Body.String() != traced.Body.String() {
			t.Errorf("%s: %d %q through the interposer, %d %q without", path, traced.Code, traced.Body, plain.Code, plain.Body)
		}
		for k := range plain.Header() {
			if plain.Header().Get(k) != traced.Header().Get(k) {
				t.Errorf("%s: header %s = %q, want %q", path, k, traced.Header().Get(k), plain.Header().Get(k))
			}
		}
	}
	a := tr.aggregate()
	want := float64(2*len("payload") + len("POST:payload") + len("no such thing\n"))
	if a.n["remoteexec.data"] != 2 || a.counts["remoteexec.data_bytes"] != want {
		t.Errorf("recorded %v %v, want %v bytes", a.n, a.counts, want)
	}
}

func TestClassifiers(t *testing.T) {
	req := func(method, path string, hdr ...string) *http.Request {
		r := httptest.NewRequest(method, path, nil)
		for i := 0; i+1 < len(hdr); i += 2 {
			r.Header.Set(hdr[i], hdr[i+1])
		}
		return r
	}
	d := "sha256:" + strings.Repeat("a", 64)
	for _, tc := range []struct {
		got, want string
	}{
		{classifyShard(req("GET", "/v2/app/blobs/"+d)), "registry.blob_get"},
		{classifyShard(req("HEAD", "/v2/app/blobs/"+d)), "registry.blob_head"},
		{classifyShard(req("POST", "/v2/app/blobs/uploads/")), "registry.upload"},
		{classifyShard(req("PATCH", "/v2/app/blobs/uploads/u1")), "registry.upload"},
		{classifyShard(req("PUT", "/v2/app/manifests/v1")), "registry.manifest"},
		{classifyShard(req("GET", "/v2/")), "registry.other"},
		{classifyShard(req("PUT", "/v2/app/manifests/v1", "Comtainer-Replicated", "1")), "fleet.replicate"},
		{classifyScheduler(req("POST", "/farm/v1/lease?worker=w1")), "remoteexec.lease"},
		{classifyScheduler(req("POST", "/farm/v1/tasks")), "remoteexec.submit"},
		{classifyScheduler(req("GET", "/farm/v1/tasks/t1?wait=2000")), "remoteexec.status"},
		{classifyScheduler(req("POST", "/farm/v1/tasks/t1/result")), "remoteexec.result"},
		{classifyScheduler(req("POST", "/farm/v1/workers")), "remoteexec.worker"},
	} {
		if tc.got != tc.want {
			t.Errorf("classified as %q, want %q", tc.got, tc.want)
		}
	}
}

func TestLeaseReplyWithoutTaskIsCounted(t *testing.T) {
	tr := liveTracer()
	replies := []string{`{}`, `{"task":{"id":"t1"},"tasks":[{"id":"t1"}]}`}
	i := 0
	h := &tracedHandler{tr: tr, classify: classifyScheduler, after: countEmptyLease, inner: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, replies[i])
		i++
	})}
	for range replies {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/farm/v1/lease?worker=w1", nil))
	}
	a := tr.aggregate()
	if a.n["remoteexec.lease"] != 2 || a.counts["remoteexec.lease_empty"] != 1 {
		t.Errorf("recorded %v %v", a.n, a.counts)
	}
}
