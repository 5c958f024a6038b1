package cache

import (
	"encoding/json"
	"strings"
	"testing"

	"comtainer/internal/containerfile"
	"comtainer/internal/core/frontend"
	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// fuzzBound is what the fuzz target lets a models document inflate to.
// Read's own bound is oci.MaxBlobSize; a bomb at it would have every
// execution hold a GiB.
const fuzzBound = 1 << 20

// hpccgModels returns the models the front-end derives from hpccg's
// x86-64 build.
func hpccgModels(f *testing.F) *model.Models {
	f.Helper()
	app, err := workloads.Find("hpccg")
	if err != nil {
		f.Fatal(err)
	}
	repo := oci.NewRepository()
	if err := sysprofile.PopulateUserSide(repo, toolchain.ISAx86); err != nil {
		f.Fatal(err)
	}
	ctx := fsim.New()
	for name, content := range app.Sources(toolchain.ISAx86) {
		ctx.WriteFile("/src/"+name, []byte(content), 0o644)
	}
	b := &containerfile.Builder{
		Repo:     repo,
		Context:  ctx,
		Registry: toolchain.GenericRegistry(toolchain.ISAx86),
		AptIndex: sysprofile.GenericIndex(toolchain.ISAx86),
		Recorder: hijack.NewRecorder(),
	}
	cf, err := containerfile.Parse(app.Containerfile(toolchain.ISAx86, true))
	if err != nil {
		f.Fatal(err)
	}
	var imgs [2]*oci.Image
	for i, stage := range []string{"build", "dist"} {
		desc, err := b.Build(cf, stage)
		if err != nil {
			f.Fatal(err)
		}
		if imgs[i], err = oci.LoadImage(repo.Store, desc); err != nil {
			f.Fatal(err)
		}
	}
	m, _, err := frontend.Analyze(imgs[0], imgs[1])
	if err != nil {
		f.Fatal(err)
	}
	return m
}

// FuzzReadCacheLayer: the cache layer comes out of a user's image. Its
// models document (gzipped here unless packed says it is stored as
// given) and its source files (one path a line, each file holding its
// path) may be anything: Read does not panic, and every source it
// returns lies at a clean absolute path the models declare.
func FuzzReadCacheLayer(f *testing.F) {
	m := hpccgModels(f)
	seed := func(m *model.Models, sources []string) {
		doc, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc, false, strings.Join(sources, "\n"))
	}
	// A valid hpccg cache layer.
	seed(m, m.SourcePaths)
	// A node and a declared source that climb out with "..".
	up := m.Clone()
	up.Graph.Nodes[0].Path = "/app/src/../../../etc/shadow"
	up.SourcePaths = append([]string{up.Graph.Nodes[0].Path}, up.SourcePaths...)
	seed(up, up.SourcePaths)
	// A command cycle hidden in an acyclic node graph: one command's
	// output feeds a second command, whose output feeds the first.
	g := model.NewBuildGraph()
	src := g.AddSource("/w/a.c")
	first := &model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "a.c", "c.o"}, Cwd: "/w", Seq: 1}
	d := g.AddProduct("/w/d.o", model.KindObject, first, []model.NodeID{src.ID})
	c := g.AddProduct("/w/c.o", model.KindObject,
		&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "d.o", "-o", "c.o"}, Cwd: "/w", Seq: 2},
		[]model.NodeID{d.ID})
	g.AddProduct("/w/a.o", model.KindObject, first, []model.NodeID{c.ID})
	seed(&model.Models{Graph: g, SourcePaths: []string{"/w/a.c"}}, []string{"/w/a.c"})
	// A declared source the layer lacks.
	seed(m, m.SourcePaths[1:])
	// A gzip bomb: a stream that inflates one byte past the bound.
	bomb, err := gzipBytes(make([]byte, fuzzBound+1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bomb, true, "")

	meta, err := json.Marshal(Meta{Version: LayerVersion, CreatedBy: "FuzzReadCacheLayer"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, doc []byte, packed bool, sources string) {
		if !packed {
			var err error
			if doc, err = gzipBytes(doc); err != nil {
				t.Fatal(err)
			}
		}
		layer := fsim.New()
		layer.WriteFile(MetaPath, meta, 0o644)
		layer.WriteFile(ModelsPath, doc, 0o644)
		for _, p := range strings.Split(sources, "\n") {
			if p != "" {
				layer.WriteFile(SrcPrefix+"/"+p, []byte(p), 0o644)
			}
		}
		store := oci.NewStore()
		desc, err := oci.WriteImage(store, oci.ImageConfig{OS: "linux"}, []*fsim.FS{layer})
		if err != nil {
			return // no image carries a layer the encoder refuses
		}
		img, err := oci.LoadImage(store, desc)
		if err != nil {
			t.Fatal(err)
		}
		got, srcFS, err := read(img, fuzzBound)
		if err != nil {
			return
		}
		declared := map[string]bool{}
		for _, p := range got.SourcePaths {
			declared[p] = true
		}
		err = srcFS.Walk(func(f *fsim.File) error {
			if f.Type == fsim.TypeRegular && (fsim.Clean(f.Path) != f.Path || !declared[f.Path]) {
				t.Errorf("Read returned source %q, which is not a clean absolute path the models declare", f.Path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
