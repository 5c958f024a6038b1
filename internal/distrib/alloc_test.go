package distrib_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"

	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// blobSizes straddle the client's 1 MiB chunk: a blob far below it, one
// a byte past it (the smallest to travel as an upload session), and one
// of several chunks.
var blobSizes = []int{64 << 10, 1<<20 + 1, 5 << 20}

// allocated returns the bytes the whole process allocated while f ran:
// the client under test and the httptest servers it talks to alike.
func allocated(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// singleLayerImage writes an image whose one layer holds a file of size
// seeded bytes, and returns its descriptor and the bytes of its blobs.
func singleLayerImage(t *testing.T, s *oci.Store, size int) (oci.Descriptor, int64) {
	t.Helper()
	payload := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(payload)
	layer := fsim.New()
	layer.WriteFile("/data/payload", payload, 0o644)
	desc, err := oci.WriteImage(s, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, []*fsim.FS{layer})
	if err != nil {
		t.Fatal(err)
	}
	return desc, s.TotalSize()
}

// requestOverhead is what the budgets below allow on top of a multiple
// of the blob bytes: a pull or push is a dozen HTTP exchanges, each with
// its headers, bufio pair and pooled 32 KiB copy buffer, whatever the
// blob's size.
const requestOverhead = 256 << 10

// TestPullAllocatesBlobOncePerHop is the ownership rule of DESIGN.md §2
// as a number: a pull from a disk-backed registry into a repository
// allocates each blob once — the client's one sized fetch buffer, which
// the destination store keeps — where a copy into the store made it
// twice and growing buffers nine times. The server streams from disk and
// allocates nothing per byte on a blob's first read.
func TestPullAllocatesBlobOncePerHop(t *testing.T) {
	for _, size := range blobSizes {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			srv, err := registry.NewServerAt(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			src := oci.NewRepository()
			desc, blobBytes := singleLayerImage(t, src.Store, size)
			src.Tag("v1", desc)
			c := registry.NewClient(ts.URL)
			c.Workers = 1
			if err := c.Push(context.Background(), src, "v1", "app", "v1"); err != nil {
				t.Fatal(err)
			}

			dst := oci.NewRepository()
			got := allocated(func() {
				if err := c.Pull(context.Background(), dst, "app", "v1", "v1"); err != nil {
					t.Fatal(err)
				}
			})
			budget := uint64(blobBytes)*5/4 + requestOverhead
			t.Logf("pull of %d blob bytes allocated %d (%.2fx)", blobBytes, got, float64(got)/float64(blobBytes))
			if got > budget {
				t.Errorf("pull of %d blob bytes allocated %d, budget %d (1.25x + %d)", blobBytes, got, budget, requestOverhead)
			}
			if dst.Store.TotalSize() != blobBytes {
				t.Errorf("pulled %d bytes, want %d", dst.Store.TotalSize(), blobBytes)
			}
		})
	}
}

// TestReadBlobAllocatesOnce: ReadBlob's buffer is the blob's size, from
// a disk store (whose reader has no length to give) as from memory.
func TestReadBlobAllocatesOnce(t *testing.T) {
	disk, err := distrib.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range blobSizes {
		payload := bytes.Repeat([]byte{byte(size)}, size)
		d, _, err := disk.Ingest(bytes.NewReader(payload), "")
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		got := allocated(func() { b, err = distrib.ReadBlob(disk, d) })
		if err != nil || !bytes.Equal(b, payload) {
			t.Fatalf("ReadBlob of %d bytes: wrong content (err=%v)", size, err)
		}
		if budget := uint64(size)*11/10 + 4096; got > budget {
			t.Errorf("ReadBlob of %d bytes allocated %d, budget %d (1.1x + 4096)", size, got, budget)
		}
	}
}
