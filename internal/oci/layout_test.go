package oci

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
)

// savedLayout writes a one-image layout whose layer holds a file of
// size bytes and returns its directory and the total size of its blobs.
func savedLayout(t testing.TB, size int) (string, int64) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	layer := fsim.New()
	layer.WriteFile("/app/data/input.dat", data, 0o644)
	r := NewRepository()
	desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{layer})
	if err != nil {
		t.Fatal(err)
	}
	r.Tag("app.dist", desc)
	dir := filepath.Join(t.TempDir(), "img.oci")
	if err := r.SaveLayout(dir); err != nil {
		t.Fatal(err)
	}
	return dir, r.Store.TotalSize()
}

// TestLoadLayoutAllocatesBlobOnce: LoadLayout keeps each blob in the
// buffer it was read into. Copying it into the store on top would
// allocate twice the blob bytes.
func TestLoadLayoutAllocatesBlobOnce(t *testing.T) {
	dir, blobs := savedLayout(t, 4<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := LoadLayout(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(blobs)
	t.Logf("LoadLayout of %d blob bytes allocated %.2fx", blobs, ratio)
	if ratio > 1.5 {
		t.Errorf("LoadLayout allocated %.2fx the blob bytes, want at most 1.5x", ratio)
	}
	if len(r.Tags()) != 1 {
		t.Errorf("tags = %v", r.Tags())
	}
}

func BenchmarkLoadLayout(b *testing.B) {
	dir, blobs := savedLayout(b, 4<<20)
	b.SetBytes(blobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadLayout(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// layoutSep separates the sections of a FuzzLoadLayout input: the
// oci-layout marker, index.json, then up to eight blob files in order.
var layoutSep = []byte("\n--\n")

// decodeLayout writes the layout in describes into dir and reports
// whether some blob file there holds bytes that do not hash to its
// name. Every "<N>" in index.json, and in blob i for N < i, is replaced
// by the hex of blob N: a fuzzed blob stays reachable. A blob section
// that starts with "!" is written, without the "!", under its hex with
// the first digit changed.
func decodeLayout(t *testing.T, dir string, in []byte) (forged bool) {
	parts := bytes.SplitN(in, layoutSep, 11)
	for len(parts) < 2 {
		parts = append(parts, nil)
	}
	marker, index, blobs := parts[0], parts[1], parts[2:]
	if len(blobs) > 8 {
		blobs = blobs[:8]
	}
	hexes := make([]string, len(blobs))
	resolve := func(b []byte, n int) []byte {
		for i := 0; i < n; i++ {
			b = bytes.ReplaceAll(b, []byte("<"+strconv.Itoa(i)+">"), []byte(hexes[i]))
		}
		return b
	}
	files := make(map[string][]byte)
	for i, b := range blobs {
		lie := bytes.HasPrefix(b, []byte("!"))
		if lie {
			b = b[1:]
		}
		b = resolve(b, i)
		hexes[i] = digest.FromBytes(b).Hex()
		name := hexes[i]
		if lie {
			first := "0"
			if name[0] == '0' {
				first = "1"
			}
			name = first + name[1:]
		}
		files[name] = b
	}
	blobDir := filepath.Join(dir, "blobs", "sha256")
	if err := os.MkdirAll(blobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(path string, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(dir, "oci-layout"), marker)
	write(filepath.Join(dir, "index.json"), resolve(index, len(blobs)))
	for name, b := range files {
		write(filepath.Join(blobDir, name), b)
		forged = forged || digest.FromBytes(b).Hex() != name
	}
	return forged
}

// FuzzLoadLayout: a layout directory is input from outside the process
// to every image verb. Whatever it holds, LoadLayout does not panic,
// refuses a blob file whose bytes do not hash to its name, and loads
// only blobs that hash to their keys; every tag it lists then loads and
// flattens to a tree or fails with an error.
func FuzzLoadLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			return // a gzip layer of more could inflate past what a fuzz worker should allocate
		}
		dir := t.TempDir()
		forged := decodeLayout(t, dir, in)
		r, err := LoadLayout(dir)
		if err != nil {
			return
		}
		if forged {
			t.Fatal("LoadLayout accepted a blob file whose bytes do not hash to its name")
		}
		for _, d := range r.Store.Digests() {
			if b, _ := r.Store.Get(d); !d.Verify(b) {
				t.Fatalf("the store holds bytes under %s that do not hash to it", d.Short())
			}
		}
		for _, tag := range r.Tags() {
			img, err := r.LoadByTag(tag)
			if err != nil {
				continue
			}
			if tree, err := img.Flatten(); err == nil && tree == nil {
				t.Fatalf("Flatten of %q returned neither a tree nor an error", tag)
			}
		}
	})
}
