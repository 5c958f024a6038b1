package oci

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
	"comtainer/internal/fsim"
	"comtainer/internal/tarfs"
)

// gzipImage rewrites img's manifest so that every layer is the +gzip
// encoding of the same tree; the config, and so the diffIDs, stay.
func gzipImage(t *testing.T, img *Image) *Image {
	t.Helper()
	m := *img.Manifest
	m.Layers = nil
	for i := range img.Manifest.Layers {
		tree, err := img.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := tarfs.MarshalGzip(tree)
		if err != nil {
			t.Fatal(err)
		}
		m.Layers = append(m.Layers, Descriptor{MediaType: MediaTypeLayerGzip, Digest: img.Store.Put(packed), Size: int64(len(packed))})
	}
	desc, err := PutJSON(img.Store, m, MediaTypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	return mustLoad(t, img.Store, desc)
}

func mustLoad(t *testing.T, s *Store, desc Descriptor) *Image {
	t.Helper()
	img, err := LoadImage(s, desc)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestWriteDerivedImageMatchesWriteImage: referencing a base's stored
// blobs gives the manifest that decoding and re-encoding them gave, for
// every kind of base layer, and leaves a complete image in the target.
func TestWriteDerivedImageMatchesWriteImage(t *testing.T) {
	plain := func(t *testing.T, s *Store) *Image {
		desc, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
		if err != nil {
			t.Fatal(err)
		}
		return mustLoad(t, s, desc)
	}
	for _, tc := range []struct {
		name string
		base func(*testing.T, *Store) *Image
		// elsewhere builds the base in a store other than the target.
		elsewhere bool
		// newBlobs is how many blobs the derived image may add to a
		// target that already holds the base: the added layer, the
		// config and the manifest, plus any base layer re-encoded.
		newBlobs int
	}{
		{name: "plain", base: plain, newBlobs: 3},
		{name: "gzip", base: func(t *testing.T, s *Store) *Image { return gzipImage(t, plain(t, s)) }, newBlobs: 3},
		{name: "annotated layer", base: func(t *testing.T, s *Store) *Image {
			desc, err := AppendLayer(s, plain(t, s).Desc, appLayer(), "comtainer.cache", "cache")
			if err != nil {
				t.Fatal(err)
			}
			return mustLoad(t, s, desc)
		}, newBlobs: 3},
		{name: "blobs not in the target", base: plain, elsewhere: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			target := NewStore()
			baseStore := target
			if tc.elsewhere {
				baseStore = NewStore()
			}
			base := tc.base(t, baseStore)
			added := fsim.New()
			added.WriteFile("/app/rebuilt", []byte("ELF lulesh, rebuilt"), 0o755)
			cfg := testConfig()
			cfg.History = []HistoryEntry{{CreatedBy: "test"}}

			decoded, err := base.Layers()
			if err != nil {
				t.Fatal(err)
			}
			want, err := WriteImage(NewStore(), cfg, append(decoded, added))
			if err != nil {
				t.Fatal(err)
			}
			before := len(target.blobs)
			got, err := WriteDerivedImage(target, cfg, base, []*fsim.FS{added})
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest != want.Digest {
				t.Errorf("derived image is %s, WriteImage over the decoded base gives %s", got.Digest.Short(), want.Digest.Short())
			}
			if n := len(target.blobs) - before; !tc.elsewhere && n != tc.newBlobs {
				t.Errorf("derived image added %d blobs to a store holding its base, want %d", n, tc.newBlobs)
			}
			flat, err := mustLoad(t, target, got).Flatten()
			if err != nil {
				t.Fatalf("derived image is not complete in its store: %v", err)
			}
			if !flat.Exists("/bin/sh") || !flat.Exists("/app/rebuilt") {
				t.Errorf("derived image lost content: %v", flat.Paths())
			}
		})
	}
}

// scribble changes fs the ways a caller owning it may.
func scribble(t *testing.T, fs *fsim.FS) {
	t.Helper()
	for _, p := range fs.Paths() {
		if f, err := fs.Stat(p); err == nil && f.Type == fsim.TypeRegular {
			fs.WriteFile(p, []byte("scribbled"), 0o600)
		}
	}
	fs.WriteFile("/scribble", []byte("new"), 0o644)
	if err := fs.Remove("/bin"); err != nil && !errors.Is(err, fsim.ErrNotExist) {
		t.Error(err)
	}
}

// TestLayerMemoIsolation: what Layer, Layers, Flatten and FlattenPrefix
// return is the caller's own — changing it never changes a later answer,
// although every later answer comes from the store's remembered trees.
func TestLayerMemoIsolation(t *testing.T) {
	s := NewStore()
	desc, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	img := mustLoad(t, s, desc)
	wantFlat := fsim.ApplyAll([]*fsim.FS{baseLayer(), appLayer()})
	check := func(when string) {
		t.Helper()
		layers, err := img.Layers()
		if err != nil {
			t.Fatal(err)
		}
		l1, err := img.Layer(1)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := img.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := img.FlattenPrefix(1)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := img.FlattenPrefix(0)
		if err != nil {
			t.Fatal(err)
		}
		if !layers[0].Equal(baseLayer()) || !layers[1].Equal(appLayer()) || !l1.Equal(appLayer()) ||
			!flat.Equal(wantFlat) || !prefix.Equal(baseLayer()) || empty.Len() != 0 {
			t.Fatalf("%s: an answer changed", when)
		}
		for _, fs := range append(layers, l1, flat, prefix, empty) {
			scribble(t, fs)
		}
	}
	check("first decode")
	if len(s.decoded) != 2 {
		t.Fatalf("store remembers %d layers, want 2", len(s.decoded))
	}
	check("after the callers changed what they were given")
	check("again")
	first, err1 := img.layer(0)
	second, err2 := img.layer(0)
	if err1 != nil || err2 != nil || first != second {
		t.Errorf("a layer the store has verified was decoded again (%v, %v)", err1, err2)
	}
	if _, err := img.FlattenPrefix(3); err == nil {
		t.Error("FlattenPrefix accepted more layers than the image has")
	}
}

// TestLayerMemoReverifies: a remembered tree answers only for the media
// type and diffID it was verified against.
func TestLayerMemoReverifies(t *testing.T) {
	s := NewStore()
	desc, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer()})
	if err != nil {
		t.Fatal(err)
	}
	img := mustLoad(t, s, desc)
	if _, err := img.Layer(0); err != nil {
		t.Fatal(err)
	}
	// The same blob under a config that claims another diffID.
	cfg := *img.Config
	cfg.RootFS.DiffIDs = []digest.Digest{digest.FromString("another tar stream")}
	m := *img.Manifest
	if m.Config, err = PutJSON(s, cfg, MediaTypeConfig); err != nil {
		t.Fatal(err)
	}
	lying, err := PutJSON(s, m, MediaTypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustLoad(t, s, lying).Layer(0); err == nil || !strings.Contains(err.Error(), "diffID mismatch") {
		t.Errorf("remembered layer answered for another diffID: err = %v", err)
	}
	// The same blob called gzip.
	m = *img.Manifest
	m.Layers = []Descriptor{{MediaType: MediaTypeLayerGzip, Digest: m.Layers[0].Digest, Size: m.Layers[0].Size}}
	mislabelled, err := PutJSON(s, m, MediaTypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustLoad(t, s, mislabelled).Flatten(); err == nil {
		t.Error("remembered layer answered for another media type")
	}
	if _, err := img.Flatten(); err != nil {
		t.Errorf("the honest image stopped decoding: %v", err)
	}
}

// TestLayerMemoDeleteForgets: a remembered tree goes with its blob.
func TestLayerMemoDeleteForgets(t *testing.T) {
	s := NewStore()
	desc, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer()})
	if err != nil {
		t.Fatal(err)
	}
	img := mustLoad(t, s, desc)
	if _, err := img.Flatten(); err != nil {
		t.Fatal(err)
	}
	blob := img.Manifest.Layers[0].Digest
	content, err := s.Get(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(blob); err != nil {
		t.Fatal(err)
	}
	if len(s.decoded) != 0 {
		t.Error("Delete kept the tree decoded from the blob")
	}
	if _, err := img.Flatten(); !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("Flatten without the layer blob: err = %v, want ErrBlobNotFound", err)
	}
	s.Put(content)
	if _, err := img.Flatten(); err != nil {
		t.Errorf("Flatten after the blob came back: %v", err)
	}
}

// TestLayerMemoConcurrent runs Flatten against Put and Delete of the
// blobs it reads. A Flatten sees the image or a missing blob, never a
// wrong tree, and no tree outlives its blob.
func TestLayerMemoConcurrent(t *testing.T) {
	s := NewStore()
	desc, err := WriteImage(s, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	img := mustLoad(t, s, desc)
	want := fsim.ApplyAll([]*fsim.FS{baseLayer(), appLayer()})
	victim := img.Manifest.Layers[1].Digest
	content, err := s.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				flat, err := img.Flatten()
				switch {
				case errors.Is(err, ErrBlobNotFound):
				case err != nil:
					t.Errorf("Flatten: %v", err)
					return
				case !flat.Equal(want):
					t.Error("Flatten returned a wrong tree")
					return
				default:
					scribble(t, flat)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := s.Delete(victim); err != nil {
				t.Error(err)
			}
			s.Put(content)
		}
	}()
	wg.Wait()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for d := range s.decoded {
		if _, ok := s.blobs[d]; !ok {
			t.Errorf("store remembers a tree for %s, a blob it no longer holds", d.Short())
		}
	}
}

// TestCopyImageVerifies: bytes shared between stores are hashed on the
// way, so a blob corrupted in the source never enters the target.
func TestCopyImageVerifies(t *testing.T) {
	src := NewStore()
	desc, err := WriteImage(src, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	victim := mustLoad(t, src, desc).Manifest.Layers[1].Digest
	src.mu.Lock()
	src.blobs[victim] = []byte("not the layer")
	src.mu.Unlock()
	dst := NewStore()
	if err := dst.CopyImage(src, desc); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("CopyImage of a corrupted blob: err = %v, want a digest mismatch", err)
	}
	if dst.Has(victim) {
		t.Error("the corrupted blob entered the target store")
	}
}

// blobTemps counts the temp files a save creates in a layout's blob
// directory.
type blobTemps struct {
	faultinject.FS
	n int
}

func (c *blobTemps) CreateTemp(dir, pattern string) (faultinject.File, error) {
	if filepath.Base(dir) == "sha256" {
		c.n++
	}
	return c.FS.CreateTemp(dir, pattern)
}

// TestSaveLayoutWritesOnlyNewBlobs: saving back over the layout a
// repository was loaded from rewrites no blob it already holds.
func TestSaveLayoutWritesOnlyNewBlobs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img.oci")
	r := NewRepository()
	desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	r.Tag("app.dist", desc)
	if err := r.SaveLayout(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := &blobTemps{FS: faultinject.OS()}
	if err := back.SaveLayoutFS(dir, unchanged); err != nil {
		t.Fatal(err)
	}
	if unchanged.n != 0 {
		t.Errorf("re-save over an unchanged layout created %d blob temp files, want 0", unchanged.n)
	}
	rebuilt, err := AppendLayer(back.Store, desc, appLayer(), "comtainer.rebuild", "")
	if err != nil {
		t.Fatal(err)
	}
	back.Tag("app.dist+coMre", rebuilt)
	grown := &blobTemps{FS: faultinject.OS()}
	if err := back.SaveLayoutFS(dir, grown); err != nil {
		t.Fatal(err)
	}
	// appLayer's blob is already there: only a config and a manifest are new.
	if grown.n != 2 {
		t.Errorf("re-save after one AppendLayer created %d blob temp files, want 2", grown.n)
	}
	final, err := LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := final.LoadByTag("app.dist+coMre"); err != nil {
		t.Error(err)
	}
}
