package distrib_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// flippingServer serves payload at every blob GET, honouring a
// "bytes=N-" Range with a 206, and flips the last byte of the body of
// the n-th request (counting from 1) when flip(n) says so. The second
// result lists the Range header of every request so far.
func flippingServer(t *testing.T, payload []byte, flip func(n int) bool) (*httptest.Server, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var ranges []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rng := r.Header.Get("Range")
		mu.Lock()
		ranges = append(ranges, rng)
		n := len(ranges)
		mu.Unlock()
		from := 0
		if rng != "" {
			if _, err := fmt.Sscanf(rng, "bytes=%d-", &from); err != nil {
				http.Error(w, "bad range", http.StatusBadRequest)
				return
			}
		}
		body := bytes.Clone(payload[from:])
		if flip(n) {
			body[len(body)-1] ^= 1
		}
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		if rng != "" {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, len(payload)-1, len(payload)))
			w.WriteHeader(http.StatusPartialContent)
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(ranges)
	}
}

// TestFetchHashGuardsWhatItKeeps: the client hashes a blob as it arrives,
// and that hash is the only check before a store adopts the buffer. Each
// way of keeping a fetched blob — a store that adopts the bytes, one that
// reads and hashes them again, the bytes themselves — refuses a blob with
// a byte flipped, and a resume whose tail is corrupt starts again from
// byte 0 instead of keeping the good prefix's bytes or its hash.
func TestFetchHashGuardsWhatItKeeps(t *testing.T) {
	payload := bytes.Repeat([]byte("hashed in the read that delivers it "), 2000)
	bd := oci.Descriptor{Digest: digest.FromBytes(payload), Size: int64(len(payload))}
	const cut = 20000

	into := func(t *testing.T, c *distrib.Client, dst distrib.Store) ([]byte, error) {
		if err := c.FetchBlob(context.Background(), dst, "app", bd); err != nil {
			if dst.Has(bd.Digest) {
				t.Error("a blob whose fetch failed is in the store")
			}
			return nil, err
		}
		return distrib.ReadBlob(dst, bd.Digest)
	}
	keeps := []struct {
		name string
		keep func(t *testing.T, c *distrib.Client) ([]byte, error)
	}{
		{"FetchBlob into oci.Store", func(t *testing.T, c *distrib.Client) ([]byte, error) {
			return into(t, c, oci.NewStore())
		}},
		{"FetchBlob into DiskStore", func(t *testing.T, c *distrib.Client) ([]byte, error) {
			disk, err := distrib.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return into(t, c, disk)
		}},
		{"FetchBytes", func(t *testing.T, c *distrib.Client) ([]byte, error) {
			return c.FetchBytes(context.Background(), "app", bd.Digest)
		}},
	}
	for _, k := range keeps {
		t.Run(k.name+"/every GET corrupt", func(t *testing.T) {
			ts, ranges := flippingServer(t, payload, func(int) bool { return true })
			c := fastClient(ts.URL)
			c.Retries = 3
			got, err := k.keep(t, c)
			if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
				t.Fatalf("fetch of a flipped blob: %d bytes, %v; want a digest mismatch", len(got), err)
			}
			if got != nil {
				t.Error("a failed fetch returned bytes")
			}
			if want := make([]string, c.Retries+1); !slices.Equal(ranges(), want) {
				t.Errorf("requests carried Range %q, want %d full GETs", ranges(), c.Retries+1)
			}
		})
		t.Run(k.name+"/corrupt tail after a resume", func(t *testing.T) {
			ts, ranges := flippingServer(t, payload, func(n int) bool { return n == 2 })
			c := fastClient(ts.URL)
			c.HTTP = &http.Client{Transport: &cutFirstBody{after: cut}}
			got, err := k.keep(t, c)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("fetch after a corrupt resume: %d bytes, %v", len(got), err)
			}
			if want := []string{"", fmt.Sprintf("bytes=%d-", cut), ""}; !slices.Equal(ranges(), want) {
				t.Errorf("requests carried Range %q, want %q: a cut GET, its resume, a fresh GET", ranges(), want)
			}
		})
	}
}

// TestPullRefusesOversizedManifest: a manifest past the 16 MiB bound is
// refused as too large — not cut to the bound and kept, nor read four
// times over as a digest mismatch the retries cannot cure — with or
// without a Content-Length and a Docker-Content-Digest header.
func TestPullRefusesOversizedManifest(t *testing.T) {
	doc := bytes.Repeat([]byte(" "), 17<<20)
	copy(doc, `{"schemaVersion":2}`)
	for _, tc := range []struct {
		name           string
		length, header bool
	}{
		{"no header, chunked", false, false},
		{"no header, Content-Length", true, false},
		{"header, chunked", false, true},
		{"header, Content-Length", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var gets atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				gets.Add(1)
				w.Header().Set("Content-Type", oci.MediaTypeManifest)
				if tc.header {
					w.Header().Set("Docker-Content-Digest", string(digest.FromBytes(doc)))
				}
				if tc.length {
					w.Header().Set("Content-Length", fmt.Sprint(len(doc)))
				} else {
					w.(http.Flusher).Flush()
				}
				_, _ = w.Write(doc)
			}))
			defer ts.Close()
			_, err := fastClient(ts.URL).PullImage(context.Background(), oci.NewStore(), "app", "v1")
			if !errors.Is(err, oci.ErrBlobTooLarge) {
				t.Fatalf("pull of a %d-byte manifest: %v; want ErrBlobTooLarge", len(doc), err)
			}
			if n := gets.Load(); n != 1 {
				t.Errorf("%d requests for a document that will never fit, want 1", n)
			}
		})
	}
}
