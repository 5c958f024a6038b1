// Package frontend implements coMtainer's user-side analysis (paper §4.2):
// it parses the raw build process recorded by the hijacker together with
// the built images, and produces the process models — the build graph, the
// compilation models and the image model.
package frontend

import (
	"strconv"

	"comtainer/internal/containerfile"
	"fmt"
	"path"
	"sort"
	"strings"

	"comtainer/internal/cclang"
	"comtainer/internal/core/model"
	"comtainer/internal/digest"
	"comtainer/internal/dpkg"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/toolchain"
)

// isaFromArch maps OCI architecture names to ISA identifiers.
func isaFromArch(arch string) string {
	if arch == "arm64" {
		return toolchain.ISAArm
	}
	return toolchain.ISAx86
}

// abs resolves p against cwd.
func abs(cwd, p string) string {
	if strings.HasPrefix(p, "/") {
		return fsim.Clean(p)
	}
	return fsim.Clean(path.Join(cwd, p))
}

// Analyze runs the front-end over the build and dist images and returns
// the process models together with the flattened build-container file
// system (which the cache layer reads source content from).
func Analyze(buildImg, distImg *oci.Image) (*model.Models, *fsim.FS, error) {
	buildFS, err := buildImg.Flatten()
	if err != nil {
		return nil, nil, fmt.Errorf("frontend: flattening build image: %w", err)
	}
	invs, err := hijack.Load(buildFS)
	if err != nil {
		return nil, nil, err
	}
	if len(invs) == 0 {
		return nil, nil, fmt.Errorf("frontend: build image carries no raw build log (was it built from a coMtainer Env image?)")
	}

	graph, err := buildGraph(invs)
	if err != nil {
		return nil, nil, err
	}

	m := &model.Models{
		Graph:     graph,
		Installed: map[string]string{},
		BuildISA:  isaFromArch(distImg.Config.Architecture),
	}
	if err := classifyImage(m, distImg, buildFS); err != nil {
		return nil, nil, err
	}

	// Sources the cache layer must carry: all graph leaves.
	seen := map[string]bool{}
	for _, n := range graph.Nodes {
		if n.Kind == model.KindSource || (n.Cmd == nil && len(n.Deps) == 0) {
			if !seen[n.Path] {
				seen[n.Path] = true
				m.SourcePaths = append(m.SourcePaths, n.Path)
			}
		}
	}
	sort.Strings(m.SourcePaths)

	// Every source the graph references must exist in the build image.
	for _, p := range m.SourcePaths {
		if !buildFS.Exists(p) {
			return nil, nil, fmt.Errorf("frontend: build graph references %s, absent from the build image", p)
		}
	}
	if err := graph.Validate(); err != nil {
		return nil, nil, err
	}
	return m, buildFS, nil
}

// buildGraph folds the recorded invocations into the typed DAG.
func buildGraph(invs []hijack.Invocation) (*model.BuildGraph, error) {
	g := model.NewBuildGraph()
	for _, inv := range invs {
		tool := inv.Tool()
		switch {
		case cclang.IsCompilerTool(tool):
			if err := addCompile(g, inv); err != nil {
				return nil, err
			}
		case tool == "ar" || tool == "llvm-ar":
			if err := addArchive(g, inv); err != nil {
				return nil, err
			}
		default:
			// ranlib, make and friends do not transform data.
		}
	}
	return g, nil
}

func addCompile(g *model.BuildGraph, inv hijack.Invocation) error {
	cmd, err := cclang.Parse(inv.Argv)
	if err != nil {
		return fmt.Errorf("frontend: invocation %d: %w", inv.Seq, err)
	}
	if cmd.Mode() == cclang.ModeInfo || cmd.Mode() == cclang.ModePreprocess {
		return nil
	}
	cm := &model.CompilationModel{Kind: "cc", Argv: inv.Argv, Cwd: inv.Cwd, Seq: inv.Seq}

	var deps []model.NodeID
	for _, in := range cmd.Inputs() {
		p := abs(inv.Cwd, in)
		switch {
		case cclang.IsSourceFile(in):
			deps = append(deps, g.AddSource(p).ID)
		default:
			// Objects/archives: usually produced earlier in the log; an
			// unseen one is an opaque prebuilt input the cache must carry.
			if n, ok := g.ByPath(p); ok {
				deps = append(deps, n.ID)
			} else {
				n := g.AddSource(p)
				n.Kind = model.KindSource
				deps = append(deps, n.ID)
			}
		}
	}
	if cmd.Mode() == cclang.ModeCompile {
		// One object per source when -o is absent.
		out, hasOut := cmd.Output()
		if hasOut {
			g.AddProduct(abs(inv.Cwd, out), model.KindObject, cm, deps)
			return nil
		}
		for _, in := range cmd.Inputs() {
			if !cclang.IsSourceFile(in) {
				continue
			}
			src, _ := g.ByPath(abs(inv.Cwd, in))
			g.AddProduct(abs(inv.Cwd, cmd.DefaultOutput(in)), model.KindObject, cm, []model.NodeID{src.ID})
		}
		return nil
	}
	// Link: locally-built libraries referenced via -l/-L become graph
	// dependencies too (system libraries are not part of the build).
	for _, lib := range cmd.Libs() {
		for _, dir := range append(cmd.LibDirs(), ".") {
			for _, ext := range []string{".a", ".so"} {
				p := abs(inv.Cwd, path.Join(dir, "lib"+lib+ext))
				if n, ok := g.ByPath(p); ok {
					deps = append(deps, n.ID)
				}
			}
		}
	}
	// One output.
	out := "a.out"
	if o, ok := cmd.Output(); ok {
		out = o
	}
	kind := model.KindExecutable
	if cmd.Shared() {
		kind = model.KindSharedObj
	}
	g.AddProduct(abs(inv.Cwd, out), kind, cm, deps)
	return nil
}

func addArchive(g *model.BuildGraph, inv hijack.Invocation) error {
	ac, err := cclang.ParseArchive(inv.Argv)
	if err != nil {
		return fmt.Errorf("frontend: invocation %d: %w", inv.Seq, err)
	}
	if !ac.Creates() {
		return nil
	}
	cm := &model.CompilationModel{Kind: "ar", Argv: inv.Argv, Cwd: inv.Cwd, Seq: inv.Seq}
	var deps []model.NodeID
	for _, mpath := range ac.Members {
		p := abs(inv.Cwd, mpath)
		if n, ok := g.ByPath(p); ok {
			deps = append(deps, n.ID)
		} else {
			deps = append(deps, g.AddSource(p).ID)
		}
	}
	g.AddProduct(abs(inv.Cwd, ac.Archive), model.KindArchive, cm, deps)
	return nil
}

// classifyImage fills in the image model: every dist file gets one of the
// five origin classes; build products are matched to graph nodes by
// content digest, yielding the Installed map the backend uses to place
// rebuilt artifacts.
func classifyImage(m *model.Models, distImg *oci.Image, buildFS *fsim.FS) error {
	distFS, err := distImg.Flatten()
	if err != nil {
		return fmt.Errorf("frontend: flattening dist image: %w", err)
	}
	// The builder labels how many leading layers come from the base image
	// (instruction layers sit above them); older images without the label
	// fall back to everything-below-the-top.
	layerCount := len(distImg.Manifest.Layers)
	baseCount := max(layerCount-1, 0)
	if v := distImg.Config.Config.Labels[containerfile.BaseLayersLabel]; v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n <= layerCount {
			baseCount = n
		}
	}
	baseFS, err := distImg.FlattenPrefix(baseCount)
	if err != nil {
		return err
	}
	db, err := dpkg.Load(distFS)
	if err != nil {
		return err
	}

	// Index build products by content digest.
	productByDigest := map[digest.Digest]string{}
	for _, n := range m.Graph.Products() {
		if data, err := buildFS.ReadFile(n.Path); err == nil {
			productByDigest[digest.FromBytes(data)] = n.Path
		}
	}

	m.Image.Architecture = distImg.Config.Architecture
	m.Image.Entrypoint = distImg.Config.Config.Entrypoint
	for _, name := range db.Names() {
		p, _ := db.Installed(name)
		m.Image.Packages = append(m.Image.Packages, model.PackageRef{Name: p.Name, Version: string(p.Version)})
	}

	err = distFS.Walk(func(f *fsim.File) error {
		if f.Type == fsim.TypeDir {
			return nil
		}
		entry := model.FileEntry{Path: f.Path, Size: f.Size()}
		switch {
		case inBase(baseFS, f):
			entry.Origin = model.OriginBase
			if owner, ok := db.OwnerOf(f.Path); ok {
				entry.Package = owner
			}
		case fileOwned(db, f.Path):
			entry.Origin = model.OriginPackage
			owner, _ := db.OwnerOf(f.Path)
			entry.Package = owner
		default:
			if f.Type == fsim.TypeRegular && toolchain.IsArtifact(f.Data) {
				if buildPath, ok := productByDigest[digest.FromBytes(f.Data)]; ok {
					entry.Origin = model.OriginBuild
					if n, ok := m.Graph.ByPath(buildPath); ok {
						entry.Node = n.ID
					}
					m.Installed[f.Path] = buildPath
				} else {
					entry.Origin = model.OriginUnknown
				}
			} else if f.Type == fsim.TypeRegular {
				entry.Origin = model.OriginData
			} else {
				entry.Origin = model.OriginUnknown
			}
		}
		m.Image.Files = append(m.Image.Files, entry)
		return nil
	})
	if err != nil {
		return err
	}
	// dpkg metadata files count as package-manager origin even though the
	// dist stage rewrites them on install.
	for i := range m.Image.Files {
		if strings.HasPrefix(m.Image.Files[i].Path, "/var/lib/dpkg/") {
			m.Image.Files[i].Origin = model.OriginPackage
			m.Image.Files[i].Package = ""
		}
	}
	return nil
}

// inBase reports whether f exists identically in the base state.
func inBase(baseFS *fsim.FS, f *fsim.File) bool {
	b, err := baseFS.Stat(f.Path)
	if err != nil {
		return false
	}
	return b.Type == f.Type && string(b.Data) == string(f.Data) && b.Target == f.Target
}

func fileOwned(db *dpkg.DB, p string) bool {
	_, ok := db.OwnerOf(p)
	return ok
}
