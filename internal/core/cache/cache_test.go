package cache

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"comtainer/internal/core/model"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
)

func sampleModels() *model.Models {
	g := model.NewBuildGraph()
	s := g.AddSource("/w/src/a.c")
	g.AddProduct("/w/app", model.KindExecutable,
		&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "a.c", "-o", "/w/app"}, Cwd: "/w/src", Seq: 0},
		[]model.NodeID{s.ID})
	return &model.Models{
		Image:       model.ImageModel{Architecture: "amd64"},
		Graph:       g,
		SourcePaths: []string{"/w/src/a.c"},
		Installed:   map[string]string{"/app/demo": "/w/app"},
		BuildISA:    "x86-64",
	}
}

func sampleBuildFS() *fsim.FS {
	fs := fsim.New()
	fs.WriteFile("/w/src/a.c", []byte("int main(){}\n"), 0o644)
	return fs
}

func distRepo(t *testing.T) (*oci.Repository, string) {
	t.Helper()
	repo := oci.NewRepository()
	layer := fsim.New()
	layer.WriteFile("/app/demo", []byte("binary"), 0o755)
	desc, err := oci.WriteImage(repo.Store, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, []*fsim.FS{layer})
	if err != nil {
		t.Fatal(err)
	}
	repo.Tag("demo.dist", desc)
	return repo, "demo.dist"
}

func TestExtendAndRead(t *testing.T) {
	repo, distTag := distRepo(t)
	m := sampleModels()
	ext, err := ExtendWith(repo, distTag, m, sampleBuildFS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tag := ExtendedTag(distTag); tag != "demo.dist+coM" {
		t.Errorf("ExtendedTag = %q", tag)
	}
	extImg, err := repo.LoadByTag(ExtendedTag(distTag))
	if err != nil {
		t.Fatal(err)
	}
	if extImg.Desc.Digest != ext.Digest {
		t.Error("tag points at the wrong manifest")
	}
	back, srcFS, err := Read(extImg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.Len() != m.Graph.Len() || back.BuildISA != m.BuildISA {
		t.Errorf("models round trip: %+v", back)
	}
	data, err := srcFS.ReadFile("/w/src/a.c")
	if err != nil || !strings.Contains(string(data), "main") {
		t.Errorf("source round trip: %q, %v", data, err)
	}
	// The original dist image is untouched and still loadable.
	distImg, err := repo.LoadByTag(distTag)
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := distImg.Flatten()
	if flat.Exists(ModelsPath) {
		t.Error("cache leaked into the dist image")
	}
}

func TestCacheLayerSize(t *testing.T) {
	repo, distTag := distRepo(t)
	ext, err := ExtendWith(repo, distTag, sampleModels(), sampleBuildFS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	size, err := CacheLayerSize(repo, ext)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Errorf("cache layer size = %d", size)
	}
	// A plain image has no cache layer.
	distDesc, _ := repo.Resolve(distTag)
	if _, err := CacheLayerSize(repo, distDesc); err == nil {
		t.Error("plain image reported a cache layer")
	}
}

func TestReadRejectsPlainImage(t *testing.T) {
	repo, distTag := distRepo(t)
	img, err := repo.LoadByTag(distTag)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(img); err == nil {
		t.Error("Read accepted an image without a cache layer")
	}
}

func TestBuildLayerMissingSource(t *testing.T) {
	m := sampleModels()
	m.SourcePaths = append(m.SourcePaths, "/w/src/ghost.c")
	if _, err := BuildLayerWith(m, sampleBuildFS(), Options{}); err == nil {
		t.Error("missing source not detected")
	}
}

// cacheLayer extends a fresh dist image with m and returns the cache
// layer's digest and its models document.
func cacheLayer(t *testing.T, m *model.Models, buildFS *fsim.FS) (digest.Digest, []byte) {
	t.Helper()
	repo, distTag := distRepo(t)
	if _, err := ExtendWith(repo, distTag, m, buildFS, Options{}); err != nil {
		t.Fatal(err)
	}
	img, err := repo.LoadByTag(ExtendedTag(distTag))
	if err != nil {
		t.Fatal(err)
	}
	last := len(img.Manifest.Layers) - 1
	layer, err := img.Layer(last)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := layer.ReadFile(ModelsPath)
	if err != nil {
		t.Fatal(err)
	}
	return img.Manifest.Layers[last].Digest, packed
}

// TestGzipWriterReuseLeaksNoState: gzipBytes reuses its compressors. A
// cache layer built after another image's must be the one a process
// builds with its first, fresh compressor — the one the test binary
// prints when it runs only this test, in a process of its own — and the
// models document's gzip header carries nothing of the build.
func TestGzipWriterReuseLeaksNoState(t *testing.T) {
	const child = "COMTAINER_CACHE_TEST_FIRST_LAYER"
	if os.Getenv(child) != "" {
		d, _ := cacheLayer(t, sampleModels(), sampleBuildFS())
		fmt.Println("first layer", d)
		return
	}
	other := sampleModels()
	otherFS := sampleBuildFS()
	for i := range 64 {
		src := fmt.Sprintf("/w/src/b%02d.c", i)
		other.Graph.AddSource(src)
		other.SourcePaths = append(other.SourcePaths, src)
		otherFS.WriteFile(src, []byte(strings.Repeat(fmt.Sprintf("int b%d;\n", i), 40)), 0o644)
	}
	first, packed := cacheLayer(t, sampleModels(), sampleBuildFS())
	if between, _ := cacheLayer(t, other, otherFS); between == first {
		t.Fatal("two different images got one cache layer")
	}
	if again, _ := cacheLayer(t, sampleModels(), sampleBuildFS()); again != first {
		t.Errorf("the same image's cache layer is %s after another image's, %s before", again.Short(), first.Short())
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestGzipWriterReuseLeaksNoState$", "-test.count=1")
	cmd.Env = append(os.Environ(), child+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	if want := "first layer " + string(first); !strings.Contains(string(out), want+"\n") {
		t.Errorf("this process's cache layer is %s; a fresh process's first:\n%s", first.Short(), out)
	}

	zr, err := gzip.NewReader(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	if !zr.ModTime.IsZero() || zr.Name != "" || zr.Comment != "" || zr.Extra != nil {
		t.Errorf("models document's gzip header: mtime %v, name %q, comment %q, extra %q", zr.ModTime, zr.Name, zr.Comment, zr.Extra)
	}
}

func TestReadDetectsTamperedCache(t *testing.T) {
	repo, distTag := distRepo(t)
	m := sampleModels()
	if _, err := ExtendWith(repo, distTag, m, sampleBuildFS(), Options{}); err != nil {
		t.Fatal(err)
	}
	extImg, _ := repo.LoadByTag(ExtendedTag(distTag))
	// Derive a tampered image whose cache layer lacks a declared source.
	tampered := fsim.New()
	blob, _ := m.Marshal()
	tampered.WriteFile(ModelsPath, blob, 0o644)
	desc, err := oci.AppendLayer(repo.Store, extImg.Desc, tampered, RoleCache, "tamper")
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite: a layer that whiteouts the sources dir.
	wh := fsim.New()
	wh.WriteFile(Dir+"/.wh.src", nil, 0)
	desc, err = oci.AppendLayer(repo.Store, desc, wh, RoleCache, "tamper2")
	if err != nil {
		t.Fatal(err)
	}
	img, err := oci.LoadImage(repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(img); err == nil {
		t.Error("tampered cache (missing declared source) accepted")
	}
}
