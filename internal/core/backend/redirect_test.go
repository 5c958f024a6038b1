package backend

import (
	"encoding/json"
	"fmt"
	"path"
	"testing"

	"comtainer/internal/core/cache"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/tarfs"
	"comtainer/internal/workloads"
)

// testLayer is one layer of a rebuilt image a test writes: the tree it
// encodes, whether its blob is gzip, and its descriptor's annotations.
type testLayer struct {
	tree        *fsim.FS
	gzip        bool
	annotations map[string]string
}

// rebuiltLayers returns the config of distTag's rebuilt image and its
// layers, each a tree the caller owns.
func rebuiltLayers(t *testing.T, repo *oci.Repository, distTag string) (oci.ImageConfig, []testLayer) {
	t.Helper()
	img, err := repo.LoadByTag(cache.RebuiltTag(distTag))
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]testLayer, len(img.Manifest.Layers))
	for i, d := range img.Manifest.Layers {
		tree, err := img.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		layers[i] = testLayer{tree: tree, annotations: d.Annotations}
	}
	return *img.Config, layers
}

// writeRebuilt tags the image of layers under cfg as distTag's rebuilt
// image, each layer's diffID the digest of its uncompressed tar.
func writeRebuilt(t *testing.T, repo *oci.Repository, distTag string, cfg oci.ImageConfig, layers []testLayer) *oci.Image {
	t.Helper()
	var descs []oci.Descriptor
	var diffIDs []digest.Digest
	for _, l := range layers {
		raw, err := tarfs.Marshal(l.tree)
		if err != nil {
			t.Fatal(err)
		}
		blob, mediaType := raw, oci.MediaTypeLayer
		if l.gzip {
			if blob, err = tarfs.MarshalGzip(l.tree); err != nil {
				t.Fatal(err)
			}
			mediaType = oci.MediaTypeLayerGzip
		}
		descs = append(descs, oci.Descriptor{MediaType: mediaType, Digest: repo.Store.Put(blob), Size: int64(len(blob)), Annotations: l.annotations})
		diffIDs = append(diffIDs, digest.FromBytes(raw))
	}
	cfg.RootFS = oci.RootFS{Type: "layers", DiffIDs: diffIDs}
	cfgDesc, err := oci.PutJSON(repo.Store, cfg, oci.MediaTypeConfig)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := oci.PutJSON(repo.Store, oci.Manifest{SchemaVersion: 2, MediaType: oci.MediaTypeManifest, Config: cfgDesc, Layers: descs}, oci.MediaTypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	repo.Tag(cache.RebuiltTag(distTag), desc)
	img, err := oci.LoadImage(repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// redirectFlat redirects distTag and returns the image and its tree.
func redirectFlat(t *testing.T, repo *oci.Repository, sys *sysprofile.System, distTag string) (*oci.Image, *fsim.FS) {
	t.Helper()
	desc, err := Redirect(repo, distTag, RedirectOptions{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	img, err := oci.LoadImage(repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return img, flat
}

// copyFlat is the tree the copy path gives for layers: redirected from
// the same layers as gzip blobs, which no redirect references, so that
// every data file is copied into the diff layer.
func copyFlat(t *testing.T, repo *oci.Repository, sys *sysprofile.System, distTag string, cfg oci.ImageConfig, layers []testLayer) *fsim.FS {
	t.Helper()
	gz := append([]testLayer(nil), layers...)
	for i := range gz {
		gz[i].gzip = true
	}
	copyTag := distTag + "-copy"
	writeRebuilt(t, repo, copyTag, cfg, gz)
	_, flat := redirectFlat(t, repo, sys, copyTag)
	return flat
}

// addedLayers returns the layers img has beyond the Rebase image's.
func addedLayers(t *testing.T, repo *oci.Repository, img *oci.Image) []oci.Descriptor {
	t.Helper()
	rebase, err := repo.LoadByTag(sysprofile.TagRebase)
	if err != nil {
		t.Fatal(err)
	}
	return img.Manifest.Layers[len(rebase.Manifest.Layers):]
}

// readPlan returns the plan in distTag's rebuilt image.
func readPlan(t *testing.T, repo *oci.Repository, distTag string) plan {
	t.Helper()
	img, err := repo.LoadByTag(cache.RebuiltTag(distTag))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := flat.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	var pl plan
	if err := json.Unmarshal(blob, &pl); err != nil {
		t.Fatal(err)
	}
	return pl
}

// synthShapes are the benchmark's synth-bulk and synth-big images
// (bench/corpus.go) at an eighth of their size: a few units beside bulk
// data, and many units, each compiled by its own RUN line, beside it.
func synthShapes() []*workloads.App {
	fft := []string{"libopenmpi3", "libfftw3-double3"}
	return []*workloads.App{
		{Name: "synth-bulk", Language: "c", SrcMiB: 1, NumSrcFiles: 4, DataMiB: 1024,
			Libs: []string{"m", "mpi"}, BuildPkgs: fft[:1], RuntimePkgs: fft[:1]},
		{Name: "synth-big", Language: "c++", SrcMiB: 512, NumSrcFiles: 16, DataMiB: 512,
			Libs: []string{"m", "mpi", "fftw3"}, BuildPkgs: fft, RuntimePkgs: fft},
	}
}

// TestRedirectSharesDataLayers: for every Table-2 application and the
// benchmark's two data-carrying shapes, on both systems, the redirected
// image flattens to the tree the copy path gives; every dist layer that
// gives a data file its bytes is listed in its manifest; and the
// redirect adds to the store only its diff layer, config and manifest,
// the diff layer holding no data file.
func TestRedirectSharesDataLayers(t *testing.T) {
	for _, sys := range []*sysprofile.System{sysprofile.X86Cluster(), sysprofile.ArmCluster()} {
		for _, app := range append(workloads.Apps(), synthShapes()...) {
			t.Run(sys.Name+"/"+app.Name, func(t *testing.T) {
				t.Parallel()
				repo, distTag := setupApp(t, sys, app)
				if _, _, err := Rebuild(repo, distTag, RebuildOptions{System: sys}); err != nil {
					t.Fatal(err)
				}
				before := map[digest.Digest]bool{}
				for _, d := range repo.Store.Digests() {
					before[d] = true
				}
				img, got := redirectFlat(t, repo, sys, distTag)
				added := addedLayers(t, repo, img)
				var stored []digest.Digest
				for _, d := range repo.Store.Digests() {
					if !before[d] {
						stored = append(stored, d)
					}
				}

				cfg, layers := rebuiltLayers(t, repo, distTag)
				if want := copyFlat(t, repo, sys, distTag, cfg, layers); !got.Equal(want) {
					t.Error("the redirected tree differs from the copy path's")
				}

				pl := readPlan(t, repo, distTag)
				if (len(pl.DataFiles) > 0) != (app.DataMiB > 0) {
					t.Fatalf("plan lists %d data files for an app with %v MiB of data", len(pl.DataFiles), app.DataMiB)
				}
				listed := map[digest.Digest]bool{}
				for _, d := range added {
					listed[d.Digest] = true
				}
				rebuilt, err := repo.LoadByTag(cache.RebuiltTag(distTag))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pl.DataFiles {
					for i := len(layers) - 1; i >= 0; i-- {
						if f, err := layers[i].tree.Stat(p); err == nil && f.Type == fsim.TypeRegular {
							if d := rebuilt.Manifest.Layers[i].Digest; !listed[d] {
								t.Errorf("%s comes from dist layer %d (%s), which the redirected manifest does not list", p, i, d.Short())
							}
							break
						}
					}
				}

				diff := added[len(added)-1]
				want := map[digest.Digest]bool{img.Desc.Digest: true, img.Manifest.Config.Digest: true, diff.Digest: true}
				for _, d := range stored {
					if !want[d] {
						t.Errorf("the redirect stored blob %s beyond its diff layer, config and manifest", d.Short())
					}
				}
				diffTree, err := img.Layer(len(img.Manifest.Layers) - 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pl.DataFiles {
					if diffTree.Exists(p) {
						t.Errorf("the diff layer holds data file %s again", p)
					}
				}
			})
		}
	}
}

// TestRedirectFallsBackToCopy: a dist layer that is not data-only is
// not referenced, and its data files are copied into the diff layer as
// before; a data file a later layer overwrites is copied even though
// its own layer is referenced. Each redirected tree is the copy path's.
func TestRedirectFallsBackToCopy(t *testing.T) {
	sys := sysprofile.X86Cluster()
	app, err := workloads.Find("lammps")
	if err != nil {
		t.Fatal(err)
	}
	repo, distTag := setupApp(t, sys, app)
	if _, _, err := Rebuild(repo, distTag, RebuildOptions{System: sys}); err != nil {
		t.Fatal(err)
	}
	pl := readPlan(t, repo, distTag)
	if len(pl.DataFiles) == 0 {
		t.Fatal("lammps carries no data files")
	}
	dataPath := pl.DataFiles[0]
	dataLayer := -1
	cfg, unedited := rebuiltLayers(t, repo, distTag)
	for i, l := range unedited {
		if l.tree.Exists(dataPath) {
			dataLayer = i
		}
	}
	if dataLayer < 0 {
		t.Fatalf("no layer holds %s", dataPath)
	}
	// The copy path is the redirect as it was before it referenced data
	// layers: it gives the digest core's TestImageDigestsGolden pinned
	// for lammps' .redirect until then.
	copyFlat(t, repo, sys, distTag, cfg, unedited)
	if d, err := repo.Resolve(distTag + "-copy.redirect"); err != nil || d.Digest.Hex() != "94050b857902dd3e09f3c18bd88e8467ae175974d7f32329cca22cf17a38bb70" {
		t.Errorf("the copy path's redirect is %s (%v), not the pre-sharing one", d.Digest.Short(), err)
	}

	cases := []struct {
		name string
		edit func(t *testing.T, layers []testLayer) []testLayer
		// shared is whether the data layer is still referenced, copied
		// whether the diff layer carries the data file.
		shared, copied bool
	}{
		{"data and a binary in one layer", func(t *testing.T, layers []testLayer) []testLayer {
			var bin *fsim.File
			for _, l := range layers[:dataLayer] {
				if f, err := l.tree.Stat(app.BinPath()); err == nil {
					bin = f
				}
			}
			if bin == nil {
				t.Fatalf("no dist layer holds %s", app.BinPath())
			}
			layers[dataLayer].tree.Add(bin)
			return layers
		}, false, true},
		{"a data directory of mode 0700 the Rebase lacks", func(t *testing.T, layers []testLayer) []testLayer {
			dir := path.Dir(dataPath)
			if _, err := layers[dataLayer].tree.Stat(dir); err != nil {
				t.Fatalf("the data layer has no %s: %v", dir, err)
			}
			layers[dataLayer].tree.Add(&fsim.File{Path: dir, Type: fsim.TypeDir, Mode: 0o700})
			return layers
		}, false, true},
		{"a gzip data layer", func(t *testing.T, layers []testLayer) []testLayer {
			layers[dataLayer].gzip = true
			return layers
		}, false, true},
		{"a data file a later dist layer overwrites", func(t *testing.T, layers []testLayer) []testLayer {
			// The later layer also holds a file the plan does not
			// carry, so it is no data-only layer itself.
			later := fsim.New()
			later.WriteFile(dataPath, []byte("overwritten\n"), 0o644)
			later.WriteFile("/app/NOTES", []byte("not data\n"), 0o644)
			return append(layers[:dataLayer+1:dataLayer+1], append([]testLayer{{tree: later}}, layers[dataLayer+1:]...)...)
		}, true, true},
		{"a later dist layer of directories only", func(t *testing.T, layers []testLayer) []testLayer {
			dirs := fsim.New()
			if err := dirs.MkdirAll("/app/empty", 0o755); err != nil {
				t.Fatal(err)
			}
			return append(layers[:dataLayer+1:dataLayer+1], append([]testLayer{{tree: dirs}}, layers[dataLayer+1:]...)...)
		}, true, false},
		{"a layer with a whiteout", func(t *testing.T, layers []testLayer) []testLayer {
			layers[dataLayer].tree.WriteFile(path.Join(path.Dir(dataPath), fsim.WhiteoutPrefix+"gone"), nil, 0)
			return layers
		}, false, true},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, layers := rebuiltLayers(t, repo, distTag)
			layers = c.edit(t, layers)
			caseTag := fmt.Sprintf("case%d.dist", i)
			variant := writeRebuilt(t, repo, caseTag, cfg, layers)
			img, got := redirectFlat(t, repo, sys, caseTag)
			if want := copyFlat(t, repo, sys, caseTag, cfg, layers); !got.Equal(want) {
				t.Error("the redirected tree differs from the copy path's")
			}
			added := addedLayers(t, repo, img)
			referenced := false
			for _, d := range added {
				referenced = referenced || d.Digest == variant.Manifest.Layers[dataLayer].Digest
			}
			if referenced != c.shared {
				t.Errorf("data layer referenced = %v, want %v", referenced, c.shared)
			}
			wantAdded := 1 // the diff layer
			if c.shared {
				wantAdded++
			}
			if len(added) != wantAdded {
				t.Errorf("%d layers beyond the Rebase image's, want %d", len(added), wantAdded)
			}
			diffTree, err := img.Layer(len(img.Manifest.Layers) - 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := got.ReadFile(dataPath)
			if err != nil {
				t.Fatal(err)
			}
			if copied, err := diffTree.ReadFile(dataPath); (err == nil && string(copied) == string(want)) != c.copied {
				t.Errorf("the diff layer carries %s as the image has it: %v, want %v", dataPath, !c.copied, c.copied)
			}
		})
	}
}
