package oci

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
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

func testConfig() ImageConfig {
	return ImageConfig{
		Architecture: "amd64",
		OS:           "linux",
		Config: ExecConfig{
			Env:        []string{"PATH=/usr/bin:/bin"},
			Entrypoint: []string{"/app/lulesh"},
		},
	}
}

func TestWriteAndLoadImage(t *testing.T) {
	s := NewStore()
	desc, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	if desc.MediaType != MediaTypeManifest {
		t.Errorf("MediaType = %q", desc.MediaType)
	}
	img, err := LoadImage(s, desc)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Manifest.Layers) != 2 {
		t.Fatalf("layers = %d", len(img.Manifest.Layers))
	}
	if img.Config.Architecture != "amd64" {
		t.Errorf("arch = %q", img.Config.Architecture)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Exists("/bin/sh") || !flat.Exists("/app/lulesh") {
		t.Errorf("flattened FS missing files: %v", flat.Paths())
	}
}

func TestLayerRoundTrip(t *testing.T) {
	s := NewStore()
	orig := appLayer()
	desc, err := WriteImage(s, testConfig(), []*fsim.FS{orig})
	if err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(s, desc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := img.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Error("layer round trip mismatch")
	}
	if _, err := img.Layer(5); err == nil {
		t.Error("out-of-range layer index accepted")
	}
}

func TestStoreDedup(t *testing.T) {
	s := NewStore()
	d1 := s.Put([]byte("same"))
	d2 := s.Put([]byte("same"))
	if d1 != d2 {
		t.Error("identical content got different digests")
	}
	if len(s.blobs) != 1 {
		t.Errorf("%d blobs, want 1", len(s.blobs))
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewStore()
	_, err := s.Get(digest.FromString("nope"))
	if !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("err = %v, want ErrBlobNotFound", err)
	}
}

func TestPutVerified(t *testing.T) {
	s := NewStore()
	content := []byte("payload")
	if err := s.PutVerified(content, digest.FromBytes(content)); err != nil {
		t.Errorf("PutVerified rejected valid content: %v", err)
	}
	if err := s.PutVerified(content, digest.FromString("other")); err == nil {
		t.Error("PutVerified accepted mismatched digest")
	}
}

func TestAppendLayerSharesBlobs(t *testing.T) {
	s := NewStore()
	base, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	baseManifestBytes, err := s.Get(base.Digest)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), baseManifestBytes...)

	cache := fsim.New()
	cache.WriteFile("/.comtainer/cache/models.json", []byte(`{"v":1}`), 0o644)
	ext, err := AppendLayer(s, base, cache, "comtainer.cache", "coMtainer-build cache layer")
	if err != nil {
		t.Fatal(err)
	}
	if ext.Digest == base.Digest {
		t.Error("extended manifest digest equals base digest")
	}
	// The original manifest blob is untouched.
	after, err := s.Get(base.Digest)
	if err != nil {
		t.Fatal("original manifest blob disappeared:", err)
	}
	if string(before) != string(after) {
		t.Error("extending the image mutated the original manifest blob")
	}
	extImg, err := LoadImage(s, ext)
	if err != nil {
		t.Fatal(err)
	}
	baseImg, err := LoadImage(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(extImg.Manifest.Layers) != len(baseImg.Manifest.Layers)+1 {
		t.Errorf("extended image has %d layers, want %d",
			len(extImg.Manifest.Layers), len(baseImg.Manifest.Layers)+1)
	}
	// First layers are bitwise-shared.
	for i := range baseImg.Manifest.Layers {
		if extImg.Manifest.Layers[i].Digest != baseImg.Manifest.Layers[i].Digest {
			t.Errorf("layer %d not shared", i)
		}
	}
	role := extImg.Manifest.Layers[len(extImg.Manifest.Layers)-1].Annotations[AnnotationLayerRole]
	if role != "comtainer.cache" {
		t.Errorf("layer role = %q", role)
	}
	flat, err := extImg.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Exists("/.comtainer/cache/models.json") || !flat.Exists("/app/lulesh") {
		t.Error("extended image flatten missing files")
	}
}

func TestRepositoryTagResolve(t *testing.T) {
	r := NewRepository()
	desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{baseLayer()})
	if err != nil {
		t.Fatal(err)
	}
	r.Tag("lulesh.dist", desc)
	got, err := r.Resolve("lulesh.dist")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != desc.Digest {
		t.Error("Resolve returned wrong descriptor")
	}
	if _, err := r.Resolve("missing"); err == nil {
		t.Error("Resolve(missing) succeeded")
	}
	// Re-tagging replaces.
	desc2, _ := WriteImage(r.Store, testConfig(), []*fsim.FS{appLayer()})
	r.Tag("lulesh.dist", desc2)
	got, _ = r.Resolve("lulesh.dist")
	if got.Digest != desc2.Digest {
		t.Error("re-tag did not replace")
	}
	if n := len(r.index.Manifests); n != 1 {
		t.Errorf("index has %d manifests, want 1", n)
	}
}

// TestTagAliasKeepsBothTags: tagging what Resolve returned under a second
// name adds a tag; the first keeps resolving.
func TestTagAliasKeepsBothTags(t *testing.T) {
	r := NewRepository()
	desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{baseLayer()})
	if err != nil {
		t.Fatal(err)
	}
	r.Tag("one", desc)
	got, err := r.Resolve("one")
	if err != nil {
		t.Fatal(err)
	}
	r.Tag("two", got)
	for _, tag := range []string{"one", "two"} {
		if d, err := r.Resolve(tag); err != nil || d.Digest != desc.Digest {
			t.Errorf("Resolve(%q) = %s, %v; want %s", tag, d.Digest.Short(), err, desc.Digest.Short())
		}
	}
	if got.Annotations[AnnotationRefName] != "one" {
		t.Errorf("the caller's descriptor now says %q", got.Annotations[AnnotationRefName])
	}
}

// TestConcurrentPullsFromOneRepository: one published image, many
// clusters. Each pull is core.SystemSide.Pull's Resolve + PushImage, into a
// repository of its own, so the only state the goroutines share is the
// source's index entry.
func TestConcurrentPullsFromOneRepository(t *testing.T) {
	from := NewRepository()
	desc, err := WriteImage(from.Store, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	from.Tag("app+coM", desc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			to := NewRepository()
			for i := 0; i < 200; i++ {
				d, err := from.Resolve("app+coM")
				if err == nil {
					err = to.PushImage(from.Store, d, "app+coM")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := to.LoadByTag("app+coM"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestLayoutRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img.oci")
	r := NewRepository()
	desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	r.Tag("xxx.dist", desc)
	if err := r.SaveLayout(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Tags(), []string{"xxx.dist"}) {
		t.Errorf("tags = %v", back.Tags())
	}
	img, err := back.LoadByTag("xxx.dist")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Exists("/app/lulesh") {
		t.Error("layout round trip lost content")
	}
}

func TestLoadLayoutRejectsCorruptBlob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img.oci")
	r := NewRepository()
	desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{baseLayer()})
	if err != nil {
		t.Fatal(err)
	}
	r.Tag("x", desc)
	if err := r.SaveLayout(dir); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in one blob on disk.
	blobDir := filepath.Join(dir, "blobs", "sha256")
	entries, err := os.ReadDir(blobDir)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(blobDir, entries[0].Name())
	if err := os.WriteFile(victim, []byte("tampered content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLayout(dir); err == nil {
		t.Error("layout with a corrupt blob loaded")
	}
}

func TestLayerDiffIDMismatchDetected(t *testing.T) {
	other := fsim.New()
	other.WriteFile("/evil", []byte("swap"), 0o644)
	for _, tc := range []struct {
		name      string
		mediaType string
		encode    func(*fsim.FS) ([]byte, error)
		content   *fsim.FS // what the layer blob holds; the diffID stays baseLayer's
		wantErr   bool
	}{
		{"tar", MediaTypeLayer, tarfs.Marshal, other, true},
		{"gzip", MediaTypeLayerGzip, tarfs.MarshalGzip, other, true},
		{"gzip intact", MediaTypeLayerGzip, tarfs.MarshalGzip, baseLayer(), false},
		{"tar, diffID is its digest", MediaTypeLayer, tarfs.Marshal, baseLayer(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			desc, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer()})
			if err != nil {
				t.Fatal(err)
			}
			img, err := LoadImage(s, desc)
			if err != nil {
				t.Fatal(err)
			}
			// Swap the layer reference to different (valid) content
			// while keeping the config's diffID: the verification must
			// catch it, whatever the layer's encoding.
			raw, err := tc.encode(tc.content)
			if err != nil {
				t.Fatal(err)
			}
			m := *img.Manifest
			m.Layers = []Descriptor{{MediaType: tc.mediaType, Digest: s.Put(raw), Size: int64(len(raw))}}
			tamperedDesc, err := PutJSON(s, m, MediaTypeManifest)
			if err != nil {
				t.Fatal(err)
			}
			tampered, err := LoadImage(s, tamperedDesc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tampered.Layer(0); (err != nil) != tc.wantErr {
				t.Errorf("Layer(0) error = %v, want error: %v", err, tc.wantErr)
			}
		})
	}
}

// TestStoreEntriesRefuseForgedBytes: every way bytes enter a Store from
// outside the process hashes them against the digest they would be kept
// under, which is what lets Image.layer take a stored tar layer whose
// diffID is its digest as verified. Each entry refuses bytes under a
// digest they do not hash to and leaves the store holding nothing that
// fails to hash to its key. (CopyImage moves bytes another Store already
// checked: TestCopyImageSharesVerifiedBytes.)
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
		enter func(t *testing.T) (*Store, error)
	}{
		{"PutVerified", func(t *testing.T) (*Store, error) {
			s := NewStore()
			return s, s.PutVerified(forged, want)
		}},
		{"Ingest", func(t *testing.T) (*Store, error) {
			s := NewStore()
			_, _, err := s.Ingest(bytes.NewReader(forged), want)
			return s, err
		}},
		{"Ingest of a Receiver", func(t *testing.T) (*Store, error) {
			var rc Receiver
			if err := rc.Receive(bytes.NewReader(forged), int64(len(forged)), false); err != nil {
				t.Fatal(err)
			}
			s := NewStore()
			_, _, err := s.Ingest(&rc, want)
			return s, err
		}},
		{"LoadLayout", func(t *testing.T) (*Store, error) {
			dir := filepath.Join(t.TempDir(), "img.oci")
			r := NewRepository()
			desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{appLayer()})
			if err != nil {
				t.Fatal(err)
			}
			r.Tag("x", desc)
			if err := r.SaveLayout(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "blobs", "sha256", want.Hex()), forged, 0o644); err != nil {
				t.Fatal(err)
			}
			back, err := LoadLayout(dir)
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

func TestLoadLayoutNotALayout(t *testing.T) {
	if _, err := LoadLayout(t.TempDir()); err == nil {
		t.Error("LoadLayout accepted an empty directory")
	}
}

func TestCopyImage(t *testing.T) {
	src := NewStore()
	desc, err := WriteImage(src, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	dst := NewStore()
	if err := dst.CopyImage(src, desc); err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(dst, desc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.Flatten(); err != nil {
		t.Fatal(err)
	}
}

// TestCopyImageManifestList: copying a manifest list brings the index,
// every member manifest and all of their blobs — what Repository
// .PushImage (and so SystemSide.Pull) does with a multi-arch tag.
func TestCopyImageManifestList(t *testing.T) {
	src := NewStore()
	members := []Descriptor{archImage(t, src, "amd64"), archImage(t, src, "arm64")}
	list := indexOf(t, src, members...)
	src.Put([]byte("unrelated blob"))
	repo := NewRepository()
	if err := repo.PushImage(src, list, "fat"); err != nil {
		t.Fatal(err)
	}
	// index + 2 x (manifest, config, layer); the unrelated blob stays behind.
	if got := len(repo.Store.blobs); got != 7 {
		t.Errorf("copied %d blobs, want 7", got)
	}
	for _, desc := range members {
		arch := desc.Platform.Architecture
		img, err := LoadImage(repo.Store, desc)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if _, err := img.Flatten(); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
	}
}

func TestImageConfigJSONStability(t *testing.T) {
	s := NewStore()
	d1, err := PutJSON(s, testConfig(), MediaTypeConfig)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := PutJSON(s, testConfig(), MediaTypeConfig)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Digest != d2.Digest {
		t.Error("identical configs produced different digests")
	}
}

func TestPropertyStorePutGet(t *testing.T) {
	s := NewStore()
	f := func(b []byte) bool {
		d := s.Put(b)
		got, err := s.Get(d)
		return err == nil && string(got) == string(b) && d.Verify(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
