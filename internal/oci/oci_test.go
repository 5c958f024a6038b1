package oci

import (
	"errors"
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
	if tags := r.Tags(); len(tags) != 1 {
		t.Errorf("tags = %v, want lulesh.dist alone", tags)
	}
}

// TestTagAliasKeepsBothTags: tagging what Resolve returned under a second
// name adds a tag; the first keeps resolving, and the descriptor the
// caller holds is left as it was.
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
	if !reflect.DeepEqual(got, desc) {
		t.Errorf("the caller's descriptor is now %+v, want %+v", got, desc)
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

func TestPushImage(t *testing.T) {
	src := NewStore()
	desc, err := WriteImage(src, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	dst := NewRepository()
	if err := dst.PushImage(src, desc, "app"); err != nil {
		t.Fatal(err)
	}
	if got, err := dst.Resolve("app"); err != nil || got.Digest != desc.Digest {
		t.Fatalf("Resolve(app) = %v, %v; want %s", got.Digest, err, desc.Digest)
	}
	img, err := LoadImage(dst.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.Flatten(); err != nil {
		t.Fatal(err)
	}
}

// TestPushImageManifestList: pushing a manifest list brings the index,
// every member manifest and all of their blobs — what SystemSide.Pull
// does with a multi-arch tag.
func TestPushImageManifestList(t *testing.T) {
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
