package main

import (
	"cmp"
	"flag"
	"fmt"
	"slices"
	"strings"

	"comtainer/internal/chrun"
	"comtainer/internal/core/cache"
	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// run executes an image on a simulated HPC system (the ch-run step of
// the evaluation) and prints the modeled execution time and the factors
// behind it.
func run(fs *flag.FlagSet) func() error {
	layout := fs.String("layout", "", "OCI layout directory or registry repository URL")
	tag := fs.String("tag", "", "image tag to run")
	workload := fs.String("workload", "", "workload id (e.g. lulesh, lammps.lj)")
	sysName := fs.String("system", "x86-64", "system to run on")
	nodes := fs.Int("nodes", 16, "number of nodes")
	export := fs.String("export", "", "also unpack the flattened image root into this host directory")
	return func() error {
		if *layout == "" || *tag == "" || *workload == "" {
			return usage("-layout <dir.oci|url> -tag <tag> -workload <id> [-system s] [-nodes n] [-export dir]")
		}
		repo, err := open(*layout)
		if err != nil {
			return err
		}
		sys, err := sysprofile.ByName(*sysName)
		if err != nil {
			return err
		}
		refs := workloads.AllRefs()
		i := slices.IndexFunc(refs, func(r workloads.Ref) bool { return r.ID() == *workload })
		if i < 0 {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		img, err := repo.LoadByTag(*tag)
		if err != nil {
			return err
		}
		if *export != "" {
			flat, err := img.Flatten()
			if err != nil {
				return err
			}
			if err := flat.ExportDir(*export); err != nil {
				return err
			}
			fmt.Printf("exported flattened root of %s to %s\n", *tag, *export)
		}
		res, err := chrun.RunImage(sys, refs[i], img, *nodes)
		if err != nil {
			return err
		}
		fmt.Printf("%s on %s, %d node(s): %.2f s (compute %.2f s, communication %.2f s)\n",
			*workload, sys.Name, *nodes, res.Seconds, res.CompSeconds, res.CommSeconds)
		fmt.Printf("binary: toolchain=%s march=%s O%s lto=%v pgo=%v\n",
			res.Binary.Toolchain, res.Binary.March, res.Binary.OptLevel, res.Binary.LTO, res.Binary.PGOOptimized)
		fmt.Printf("factors: lib=%.2f (%.0f%% of key libs optimized) cc=%.2f libc=%.2f lto=%.2f pgo=%.2f net=%v\n",
			res.LibFactor, res.LibFraction*100, res.CCFactor, res.LibcFactor, res.LTOFactor, res.PGOFactor, res.NetPath)
		return nil
	}
}

// inspect lists a store's tags and manifests or, for one tag, the
// image and — for a coMtainer extended image — its embedded process
// models: image-model origin statistics, the build graph and the
// recorded compilation commands (-graph).
func inspect(fs *flag.FlagSet) func() error {
	layout := fs.String("layout", "", "OCI layout directory or registry repository URL")
	tag := fs.String("tag", "", "inspect one tag in depth (default: list all)")
	showGraph := fs.Bool("graph", false, "print the full build graph of an extended image")
	return func() error {
		if *layout == "" {
			return usage("-layout <dir.oci|url> [-tag t] [-graph]")
		}
		repo, err := open(*layout)
		if err != nil {
			return err
		}
		if *tag == "" {
			fmt.Printf("%-36s %-14s %s\n", "tag", "digest", "layers")
			for _, t := range repo.Tags() {
				img, err := repo.LoadByTag(t)
				if err != nil {
					return err
				}
				roles := make([]string, len(img.Manifest.Layers))
				for i, l := range img.Manifest.Layers {
					roles[i] = cmp.Or(l.Annotations[oci.AnnotationLayerRole], "rootfs")
				}
				fmt.Printf("%-36s %-14s %s\n", t, img.Desc.Digest.Short(), strings.Join(roles, ","))
			}
			return nil
		}
		img, err := repo.LoadByTag(*tag)
		if err != nil {
			return err
		}
		fmt.Printf("tag:          %s\ndigest:       %s\narchitecture: %s\nentrypoint:   %v\nlayers:       %d\n",
			*tag, img.Desc.Digest, img.Config.Architecture, img.Config.Config.Entrypoint, len(img.Manifest.Layers))
		m, _, err := cache.Read(img)
		if err != nil {
			fmt.Println("(no coMtainer cache layer)")
			return nil
		}
		fmt.Printf("build ISA:    %s\n", m.BuildISA)
		fmt.Println("image model origins:")
		counts := m.Image.CountByOrigin()
		origins := make([]model.FileOrigin, 0, len(counts))
		for origin := range counts {
			origins = append(origins, origin)
		}
		slices.Sort(origins)
		for _, origin := range origins {
			fmt.Printf("  %-8s %d files\n", origin, counts[origin])
		}
		fmt.Printf("packages:     %d\n", len(m.Image.Packages))
		fmt.Printf("build graph:  %d nodes (%d sources, %d products)\n",
			m.Graph.Len(), len(m.Graph.Sources()), len(m.Graph.Products()))
		fmt.Printf("installed products: %d\n", len(m.Installed))
		if *showGraph {
			order, err := m.Graph.Topo()
			if err != nil {
				return err
			}
			for _, n := range order {
				if n.Cmd == nil {
					fmt.Printf("  [%3d] %-13s %s\n", n.ID, n.Kind, n.Path)
					continue
				}
				fmt.Printf("  [%3d] %-13s %s\n        <- %s\n",
					n.ID, n.Kind, n.Path, strings.Join(n.Cmd.Argv, " "))
			}
		}
		return nil
	}
}

// diff compares two images in a store — typically a dist image against
// its redirected, system-optimized descendant — and reports what
// changed, file by file, annotated with the origin classes of the
// extended image's models when available.
func diff(fs *flag.FlagSet) func() error {
	layout := fs.String("layout", "", "OCI layout directory or registry repository URL")
	fromTag := fs.String("from", "", "baseline image tag")
	toTag := fs.String("to", "", "derived image tag")
	return func() error {
		if *layout == "" || *fromTag == "" || *toTag == "" {
			return usage("-layout <dir.oci|url> -from <tag> -to <tag>")
		}
		repo, err := open(*layout)
		if err != nil {
			return err
		}
		fromImg, err := repo.LoadByTag(*fromTag)
		if err != nil {
			return err
		}
		toImg, err := repo.LoadByTag(*toTag)
		if err != nil {
			return err
		}
		fromFS, err := fromImg.Flatten()
		if err != nil {
			return err
		}
		toFS, err := toImg.Flatten()
		if err != nil {
			return err
		}
		// Origins from the extended image's models, when present.
		origins := map[string]model.FileOrigin{}
		for _, tag := range repo.Tags() {
			img, err := repo.LoadByTag(tag)
			if err != nil {
				continue
			}
			if m, _, err := cache.Read(img); err == nil {
				for _, fe := range m.Image.Files {
					origins[fe.Path] = fe.Origin
				}
				break
			}
		}
		var added, removed, changed []*fsim.File
		if err := toFS.Walk(func(tf *fsim.File) error {
			if tf.Type == fsim.TypeDir {
				return nil
			}
			ff, err := fromFS.Stat(tf.Path)
			switch {
			case err != nil:
				added = append(added, tf)
			case string(ff.Data) != string(tf.Data) || ff.Target != tf.Target || ff.Type != tf.Type:
				changed = append(changed, tf)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := fromFS.Walk(func(ff *fsim.File) error {
			if ff.Type != fsim.TypeDir && !toFS.Exists(ff.Path) {
				removed = append(removed, ff)
			}
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("diff %s -> %s: %d added, %d changed, %d removed\n\n",
			*fromTag, *toTag, len(added), len(changed), len(removed))
		list := func(mark string, files []*fsim.File) {
			for _, f := range files {
				fmt.Printf("%s %-9s %-45s %s\n", mark, cmp.Or(string(origins[f.Path]), "-"), f.Path, describe(f))
			}
		}
		list("A", added)
		list("M", changed)
		list("D", removed)
		return nil
	}
}

// describe summarizes a file's content for the diff listing.
func describe(f *fsim.File) string {
	if f.Type == fsim.TypeSymlink {
		return "-> " + f.Target
	}
	if toolchain.IsArtifact(f.Data) {
		art, err := toolchain.Decode(f.Data)
		if err == nil {
			s := fmt.Sprintf("%s (%s, %s, -O%s", art.Kind, art.Toolchain, art.March, art.OptLevel)
			if art.LTO {
				s += ", lto"
			}
			if art.PGOOptimized {
				s += ", pgo"
			}
			if art.Optimized {
				s += ", optimized"
			}
			return s + ")"
		}
	}
	return fmt.Sprintf("%d bytes", f.Size())
}
