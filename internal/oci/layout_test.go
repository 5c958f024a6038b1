// The image directory's tests sit with oci's others but run outside the
// package: its reader and writer are distrib's, which imports oci.
package oci_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/tarfs"
)

func baseLayer() *fsim.FS {
	f := fsim.New()
	f.WriteFile("/bin/sh", []byte("#!shell"), 0o755)
	f.WriteFile("/etc/os-release", []byte("ID=ubuntu\nVERSION_ID=24.04\n"), 0o644)
	return f
}

func appLayer() *fsim.FS {
	f := fsim.New()
	f.WriteFile("/app/lulesh", []byte("ELF lulesh"), 0o755)
	return f
}

func testConfig() oci.ImageConfig {
	return oci.ImageConfig{
		Architecture: "amd64",
		OS:           "linux",
		Config: oci.ExecConfig{
			Env:        []string{"PATH=/usr/bin:/bin"},
			Entrypoint: []string{"/app/lulesh"},
		},
	}
}

// tagged returns a repository holding one image of layers, tagged tag.
func tagged(t testing.TB, tag string, layers ...*fsim.FS) (*oci.Repository, oci.Descriptor) {
	t.Helper()
	r := oci.NewRepository()
	desc, err := oci.WriteImage(r.Store, testConfig(), layers)
	if err != nil {
		t.Fatal(err)
	}
	r.Tag(tag, desc)
	return r, desc
}

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
	r, _ := tagged(t, "app.dist", layer)
	dir := filepath.Join(t.TempDir(), "img.oci")
	if err := distrib.SaveLayout(r, dir); err != nil {
		t.Fatal(err)
	}
	return dir, r.Store.TotalSize()
}

// mustFlatten loads tag from r and flattens it, failing t on an error.
func mustFlatten(t *testing.T, r *oci.Repository, tag string) *fsim.FS {
	t.Helper()
	img, err := r.LoadByTag(tag)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

func TestLayoutRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img.oci")
	r, _ := tagged(t, "xxx.dist", baseLayer(), appLayer())
	if err := distrib.SaveLayout(r, dir); err != nil {
		t.Fatal(err)
	}
	back, err := distrib.LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Tags(), []string{"xxx.dist"}) {
		t.Errorf("tags = %v", back.Tags())
	}
	if !mustFlatten(t, back, "xxx.dist").Exists("/app/lulesh") {
		t.Error("layout round trip lost content")
	}
	// The directory is an OCI layout: the marker, the blobs under their
	// hex, and an index.json whose manifests carry their tags.
	for _, d := range r.Store.Digests() {
		if _, err := os.Stat(filepath.Join(dir, "blobs", "sha256", d.Hex())); err != nil {
			t.Errorf("blob %s is not at blobs/sha256/<hex>: %v", d.Short(), err)
		}
	}
	if b, err := os.ReadFile(filepath.Join(dir, "oci-layout")); err != nil || string(b) != `{"imageLayoutVersion": "1.0.0"}` {
		t.Errorf("oci-layout = %q, %v", b, err)
	}
	// Every file the directory publishes is readable by other users.
	published := []string{filepath.Join(dir, "oci-layout"), filepath.Join(dir, "index.json")}
	for _, d := range r.Store.Digests() {
		published = append(published, filepath.Join(dir, "blobs", "sha256", d.Hex()))
	}
	for _, path := range published {
		if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
			t.Errorf("%s: mode %v (%v), want 0644", path, fi.Mode().Perm(), err)
		}
	}
	idx, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.Resolve("xxx.dist")
	if !bytes.Contains(idx, []byte(`"org.opencontainers.image.ref.name": "xxx.dist"`)) || !bytes.Contains(idx, []byte(want.Digest)) {
		t.Errorf("index.json does not name the image by its tag:\n%s", idx)
	}
}

// TestLoadLayoutRejectsCorruptBlob: a blob file whose bytes do not hash
// to its name fails the load with its digest, and the load leaves the
// directory as it was: the blob is not quarantined, no tag is dropped.
func TestLoadLayoutRejectsCorruptBlob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img.oci")
	r, desc := tagged(t, "x", baseLayer())
	if err := distrib.SaveLayout(r, dir); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "blobs", "sha256", desc.Digest.Hex())
	if err := os.WriteFile(victim, []byte("tampered content"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := distrib.LoadLayout(dir)
	if err == nil || !strings.Contains(err.Error(), string(desc.Digest)) {
		t.Fatalf("load of a layout with a corrupt blob: %v, want an error naming %s", err, desc.Digest)
	}
	if b, err := os.ReadFile(victim); err != nil || string(b) != "tampered content" {
		t.Errorf("the corrupt blob was moved or changed by the load: %q, %v", b, err)
	}
	tags, err := distrib.NewDiskTags(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tags.Close()
	if _, ok := tags.Resolve(distrib.LayoutRepository, "x"); !ok {
		t.Error("the load dropped the tag of the corrupt manifest")
	}
}

func TestLoadLayoutNotALayout(t *testing.T) {
	if _, err := distrib.LoadLayout(t.TempDir()); err == nil {
		t.Error("LoadLayout accepted an empty directory")
	}
	for _, marker := range []string{"", "not json", "{}", `{"imageLayoutVersion": ""}`} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "oci-layout"), []byte(marker), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := distrib.LoadLayout(dir); err == nil || !strings.Contains(err.Error(), "invalid oci-layout marker") {
			t.Errorf("LoadLayout of a directory whose marker is %q: %v, want the marker refused", marker, err)
		}
	}
}

// countingFS counts the opens of files under a layout's blob directory.
type countingFS struct {
	faultinject.FS
	opens int
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultinject.File, error) {
	if filepath.Base(filepath.Dir(name)) == "sha256" {
		c.opens++
	}
	return c.FS.OpenFile(name, flag, perm)
}

// TestLoadLayoutAllocatesBlobOnce: a load reads each blob once, into
// the buffer the store keeps, and hashes it once: no open-time Repair
// reads it first. Copying it into the store on top would allocate twice
// the blob bytes.
func TestLoadLayoutAllocatesBlobOnce(t *testing.T) {
	dir, blobs := savedLayout(t, 4<<20)
	count := &countingFS{FS: faultinject.OS()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := distrib.LoadLayoutFS(dir, count)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(blobs)
	t.Logf("LoadLayout of %d blob bytes allocated %.2fx", blobs, ratio)
	if ratio > 1.5 {
		t.Errorf("LoadLayout allocated %.2fx the blob bytes, want at most 1.5x", ratio)
	}
	if n := len(r.Store.Digests()); count.opens != n {
		t.Errorf("LoadLayout opened blob files %d times for %d blobs, want once each", count.opens, n)
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
		if _, err := distrib.LoadLayout(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// blobCommits counts the blobs a save commits: renames into a layout's
// blob directory.
type blobCommits struct {
	faultinject.FS
	n int
}

func (c *blobCommits) Rename(oldpath, newpath string) error {
	if filepath.Base(filepath.Dir(newpath)) == "sha256" {
		c.n++
	}
	return c.FS.Rename(oldpath, newpath)
}

// TestSaveLayoutWritesOnlyNewBlobs: saving back over the layout a
// repository was loaded from rewrites no blob it already holds.
func TestSaveLayoutWritesOnlyNewBlobs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img.oci")
	r, desc := tagged(t, "app.dist", baseLayer(), appLayer())
	if err := distrib.SaveLayout(r, dir); err != nil {
		t.Fatal(err)
	}
	back, err := distrib.LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := &blobCommits{FS: faultinject.OS()}
	if err := distrib.SaveLayoutFS(back, dir, unchanged); err != nil {
		t.Fatal(err)
	}
	if unchanged.n != 0 {
		t.Errorf("re-save over an unchanged layout committed %d blobs, want 0", unchanged.n)
	}
	rebuilt, err := oci.AppendLayer(back.Store, desc, appLayer(), "comtainer.rebuild", "")
	if err != nil {
		t.Fatal(err)
	}
	back.Tag("app.dist+coMre", rebuilt)
	grown := &blobCommits{FS: faultinject.OS()}
	if err := distrib.SaveLayoutFS(back, dir, grown); err != nil {
		t.Fatal(err)
	}
	// appLayer's blob is already there: only a config and a manifest are new.
	if grown.n != 2 {
		t.Errorf("re-save after one AppendLayer committed %d blobs, want 2", grown.n)
	}
	final, err := distrib.LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := final.LoadByTag("app.dist+coMre"); err != nil {
		t.Error(err)
	}
}

// TestSaveLayoutCrashConsistency pins the layout crash contract in two
// phases per seed, each a save interrupted by injected faults (EIO,
// short writes, a power cut freezing torn temp files in place).
//
// Into a fresh directory, the save must leave one of exactly two
// states — LoadLayout fails cleanly, or it yields a fully verified,
// loadable image. Nothing in between: the oci-layout marker is written
// last, so a reader never sees a layout whose tags and blobs have not
// all landed.
//
// Over an existing good layout (what comtainer rebuild and redirect
// do: load, work, save back), the directory must keep loading whatever
// the save did: it yields the old image or the new one, never an error.
func TestSaveLayoutCrashConsistency(t *testing.T) {
	cycles := int64(100)
	if testing.Short() {
		cycles = 10
	}
	for seed := int64(1); seed <= cycles; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			r, desc := tagged(t, "app.dist", baseLayer(), appLayer())
			faulty := func() faultinject.FS {
				return faultinject.NewFS(faultinject.OS(), faultinject.NewPlan(seed).
					Rate(faultinject.EIO, 0.04).
					Rate(faultinject.ShortWrite, 0.05).
					Rate(faultinject.PowerCut, 0.03))
			}
			// verified loads the tag and checks the image end to end.
			verified := func(back *oci.Repository) oci.Descriptor {
				t.Helper()
				img, err := back.LoadByTag("app.dist")
				if err != nil {
					t.Fatalf("loadable layout with broken tag: %v", err)
				}
				flat, err := img.Flatten()
				if err != nil {
					t.Fatalf("loadable layout with unverifiable layers: %v", err)
				}
				if !flat.Exists("/app/lulesh") {
					t.Fatal("loadable layout lost content")
				}
				return img.Desc
			}

			fresh := filepath.Join(t.TempDir(), "img.oci")
			saveErr := distrib.SaveLayoutFS(r, fresh, faulty())
			back, loadErr := distrib.LoadLayout(fresh)
			if saveErr == nil && loadErr != nil {
				t.Fatalf("save succeeded but load failed: %v", loadErr)
			}
			if loadErr == nil {
				// With or without a reported save error, a layout that
				// loads must be complete.
				verified(back)
			}

			existing := filepath.Join(t.TempDir(), "img.oci")
			if err := distrib.SaveLayout(r, existing); err != nil {
				t.Fatal(err)
			}
			extra := fsim.New()
			extra.WriteFile("/app/rebuilt", []byte("ELF lulesh, rebuilt"), 0o755)
			rebuilt, err := oci.AppendLayer(r.Store, desc, extra, "comtainer.rebuild", "")
			if err != nil {
				t.Fatal(err)
			}
			r.Tag("app.dist", rebuilt)
			saveErr = distrib.SaveLayoutFS(r, existing, faulty())
			back, err = distrib.LoadLayout(existing)
			if err != nil {
				t.Fatalf("a crashed re-save (%v) made a good layout unloadable: %v", saveErr, err)
			}
			switch got := verified(back); {
			case got.Digest == rebuilt.Digest:
			case got.Digest == desc.Digest && saveErr != nil:
			default:
				t.Fatalf("re-save (err %v) left image %s, want %s or, crashed, %s",
					saveErr, got.Digest.Short(), rebuilt.Digest.Short(), desc.Digest.Short())
			}
		})
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
// to every image verb, and one with no tags.log has its tags read from
// index.json. Whatever it holds, LoadLayout does not panic,
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
		r, err := distrib.LoadLayout(dir)
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

// TestStoreEntriesRefuseForgedBytes: every way bytes enter a Store from
// outside the process hashes them against the digest they would be kept
// under, which is what lets Image.layer take a stored tar layer whose
// diffID is its digest as verified. Each entry refuses bytes under a
// digest they do not hash to and leaves the store holding nothing that
// fails to hash to its key. (Repository.PushImage moves bytes another
// Store already checked: TestPushImageSharesVerifiedBytes.)
func TestStoreEntriesRefuseForgedBytes(t *testing.T) {
	layer, err := tarfs.Marshal(appLayer())
	if err != nil {
		t.Fatal(err)
	}
	want := digest.FromBytes(layer)
	forged := []byte("not the layer")
	for _, tc := range []struct {
		name string
		// enter offers forged under want and returns the store it would
		// have landed in (nil when the entry refuses as a whole).
		enter func(t *testing.T) (*oci.Store, error)
	}{
		{"Ingest", func(t *testing.T) (*oci.Store, error) {
			s := oci.NewStore()
			_, _, err := s.Ingest(bytes.NewReader(forged), want)
			return s, err
		}},
		{"Ingest of a Receiver", func(t *testing.T) (*oci.Store, error) {
			var rc oci.Receiver
			if err := rc.Receive(bytes.NewReader(forged), int64(len(forged)), false); err != nil {
				t.Fatal(err)
			}
			s := oci.NewStore()
			_, _, err := s.Ingest(&rc, want)
			return s, err
		}},
		{"LoadLayout", func(t *testing.T) (*oci.Store, error) {
			dir := filepath.Join(t.TempDir(), "img.oci")
			r, _ := tagged(t, "x", appLayer())
			if err := distrib.SaveLayout(r, dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "blobs", "sha256", want.Hex()), forged, 0o644); err != nil {
				t.Fatal(err)
			}
			back, err := distrib.LoadLayout(dir)
			if back == nil {
				return nil, err
			}
			return back.Store, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.enter(t)
			if err == nil {
				t.Fatal("forged bytes were accepted")
			}
			if s == nil {
				return
			}
			if s.Has(want) {
				t.Errorf("the store holds a blob under %s after refusing it", want.Short())
			}
			for _, d := range s.Digests() {
				if b, _ := s.Get(d); !d.Verify(b) {
					t.Errorf("the store holds bytes under %s that do not hash to it", d.Short())
				}
			}
		})
	}
}
