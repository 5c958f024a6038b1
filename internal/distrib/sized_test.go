package distrib_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"unsafe"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// blobServer answers every blob GET with serve and everything else from
// a registry holding the image desc (pushed as app:v1).
func blobServer(t *testing.T, serve http.HandlerFunc) (ts *httptest.Server, desc oci.Descriptor, layer oci.Descriptor, blobGets *atomic.Int64) {
	t.Helper()
	srv := registry.NewServer()
	inner := srv.Handler()
	blobGets = new(atomic.Int64)
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/blobs/sha256:") {
			blobGets.Add(1)
			serve(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	src := oci.NewStore()
	desc = buildTestImage(t, src, strings.Repeat("a layer worth lying about ", 200))
	if err := fastClient(ts.URL).PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	m, err := oci.LoadManifest(src, desc.Digest)
	if err != nil {
		t.Fatal(err)
	}
	return ts, desc, m.Layers[0], blobGets
}

// TestLyingContentLengthIsNotAnAllocation: the client sizes its fetch
// buffer from what the registry declares, so what the registry declares
// must not be able to cost more than a fixed bound. A server that says a
// gibibyte follows and sends ten bytes fails the fetch for a few
// megabytes, by bare digest and through a pull alike; one that declares
// more than the client will ever hold is refused at once, not asked
// four times.
func TestLyingContentLengthIsNotAnAllocation(t *testing.T) {
	declare := func(length string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", length)
			_, _ = w.Write([]byte("ten bytes!"))
		}
	}
	const gib = "1073741824"

	t.Run("bare digest", func(t *testing.T) {
		ts, _, layer, gets := blobServer(t, declare(gib))
		var err error
		got := allocated(func() { _, err = fastClient(ts.URL).FetchBytes(context.Background(), "app", layer.Digest) })
		if err == nil {
			t.Fatal("FetchBytes returned a ten-byte body for a blob it does not hash to")
		}
		if got > 32<<20 {
			t.Errorf("a declared GiB that delivered ten bytes cost %d bytes of allocation", got)
		}
		if n := gets.Load(); n != 4 {
			t.Errorf("%d blob GETs, want the retry budget of 4", n)
		}
	})
	t.Run("pull", func(t *testing.T) {
		ts, _, _, _ := blobServer(t, declare(gib))
		var err error
		got := allocated(func() { _, err = fastClient(ts.URL).PullImage(context.Background(), oci.NewStore(), "app", "v1") })
		if err == nil || !strings.Contains(err.Error(), "declares") {
			t.Fatalf("pull of a blob whose length contradicts its descriptor: %v", err)
		}
		if got > 4<<20 {
			t.Errorf("a Content-Length that contradicts the descriptor cost %d bytes of allocation", got)
		}
	})
	t.Run("beyond the cap", func(t *testing.T) {
		ts, _, layer, gets := blobServer(t, declare("1073741825"))
		_, err := fastClient(ts.URL).FetchBytes(context.Background(), "app", layer.Digest)
		if !errors.Is(err, oci.ErrBlobTooLarge) {
			t.Fatalf("FetchBytes of a blob declared past the cap: %v, want ErrBlobTooLarge", err)
		}
		if n := gets.Load(); n != 1 {
			t.Errorf("%d blob GETs for a blob that will never fit, want 1", n)
		}
	})
}

// TestUnderstatedContentLengthIsRejected: a server that declares ten
// bytes and sends the whole blob. The transport hands the client the
// ten; they do not hash to the digest, and a pull does not even read
// them, the descriptor knowing better.
func TestUnderstatedContentLengthIsRejected(t *testing.T) {
	var body []byte
	ts, _, layer, _ := blobServer(t, func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\nConnection: close\r\n\r\n")
		_, _ = buf.Write(body)
		_ = buf.Flush()
	})
	body = bytes.Repeat([]byte("x"), int(layer.Size))
	if got, err := fastClient(ts.URL).FetchBytes(context.Background(), "app", layer.Digest); err == nil {
		t.Fatalf("FetchBytes returned %d bytes of a blob the server cut to ten", len(got))
	}
	dst := oci.NewStore()
	if _, err := fastClient(ts.URL).PullImage(context.Background(), dst, "app", "v1"); err == nil {
		t.Fatal("pull accepted a blob the server cut to ten bytes")
	}
	if dst.Has(layer.Digest) {
		t.Error("the cut blob was stored")
	}
}

// TestFetchWithoutContentLength: a chunked response declares nothing,
// so the buffer grows as the bytes arrive — and a transfer cut mid-way
// still resumes from what it kept.
func TestFetchWithoutContentLength(t *testing.T) {
	payload := bytes.Repeat([]byte("no length was declared for these bytes "), 4096)
	d := digest.FromBytes(payload)
	var ranges []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rng := r.Header.Get("Range")
		ranges = append(ranges, rng)
		from := 0
		if rng != "" {
			if _, err := fmt.Sscanf(rng, "bytes=%d-", &from); err != nil {
				http.Error(w, "bad range", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, len(payload)-1, len(payload)))
			w.WriteHeader(http.StatusPartialContent)
		}
		w.(http.Flusher).Flush() // headers out before the length is known: chunked
		_, _ = w.Write(payload[from:])
	}))
	defer ts.Close()

	c := fastClient(ts.URL)
	c.HTTP = &http.Client{Transport: &cutFirstBody{after: 50000}}
	got, err := c.FetchBytes(context.Background(), "app", d)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("FetchBytes over chunked responses: %d bytes, %v", len(got), err)
	}
	if len(ranges) != 2 || ranges[0] != "" || !strings.HasPrefix(ranges[1], "bytes=") {
		t.Fatalf("server saw Range headers %q, want a fresh GET and one resume", ranges)
	}
}

// cutFirstBody fails the first response's body after so many bytes, the
// way a dying connection would — for responses faultinject.Truncate
// passes over because they declare no length to take a share of.
type cutFirstBody struct {
	after int
	done  atomic.Bool
}

func (t *cutFirstBody) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && t.done.CompareAndSwap(false, true) {
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(io.LimitReader(resp.Body, int64(t.after)), iotest.ErrReader(io.ErrUnexpectedEOF)), resp.Body}
	}
	return resp, err
}

// TestFetchRestartsWhenRangeIsIgnored: a server that answers a Range
// request with the whole blob and a 200. The bytes kept from the cut
// attempt are dropped, not prefixed to the full body.
func TestFetchRestartsWhenRangeIsIgnored(t *testing.T) {
	payload := bytes.Repeat([]byte("the server has never heard of Range "), 2048)
	d := digest.FromBytes(payload)
	var ranged atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Range") != "" {
			ranged.Add(1)
		}
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		_, _ = w.Write(payload)
	}))
	defer ts.Close()

	c := fastClient(ts.URL)
	c.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, faultinject.NewPlan(3).At(1, faultinject.Truncate))}
	dst := oci.NewStore()
	if err := c.FetchBlob(context.Background(), dst, "app", d); err != nil {
		t.Fatalf("fetch from a server that ignores Range: %v", err)
	}
	if got, err := dst.Get(d); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fetched blob not byte-identical (err=%v)", err)
	}
	if ranged.Load() != 1 {
		t.Fatalf("%d ranged requests, want the one resume the server ignored", ranged.Load())
	}
}

// TestFetchBytesResultIsTheCallers: the slice FetchBytes returns is the
// fetch's own buffer handed over, so two fetches must not share one.
func TestFetchBytesResultIsTheCallers(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(ts.URL)
	payload := []byte("a record two sessions fetch")
	d, err := c.PushBytes(context.Background(), "app", payload)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.FetchBytes(context.Background(), "app", d)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.FetchBytes(context.Background(), "app", d)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(first) == unsafe.SliceData(second) {
		t.Fatal("two fetches returned one backing array")
	}
	for i := range first {
		first[i] = 0
	}
	if !bytes.Equal(second, payload) {
		t.Error("writing to one fetch's result changed the other's")
	}
	if third, err := c.FetchBytes(context.Background(), "app", d); err != nil || !bytes.Equal(third, payload) {
		t.Errorf("writing to a fetch's result changed what the registry serves: %q, %v", third, err)
	}
}

// TestReadBlobRejectsWrongSize: a source whose reader is shorter or
// longer than the size its Open returned.
func TestReadBlobRejectsWrongSize(t *testing.T) {
	store := oci.NewStore()
	d := store.Put([]byte("twenty bytes of blob"))
	for _, claim := range []int64{10, 30} {
		if b, err := distrib.ReadBlob(misSized{store, claim}, d); err == nil {
			t.Errorf("ReadBlob returned %d bytes from a source that claimed %d and held 20", len(b), claim)
		}
	}
	if b, err := distrib.ReadBlob(store, d); err != nil || string(b) != "twenty bytes of blob" {
		t.Errorf("ReadBlob = %q, %v", b, err)
	}
}

// misSized reports size for every blob it opens.
type misSized struct {
	*oci.Store
	size int64
}

func (s misSized) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	r, _, err := s.Store.Open(d)
	return r, s.size, err
}
