// Command comtainer-diff compares two images in an OCI layout — typically
// a dist image against its redirected, system-optimized descendant — and
// reports what changed, file by file, annotated with the origin classes
// of the extended image's models when available.
//
// Usage:
//
//	comtainer-diff -layout ./lulesh.dist.oci -from lulesh.dist -to lulesh.dist.redirect
package main

import (
	"flag"
	"fmt"
	"os"

	"comtainer/internal/core/cache"
	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/toolchain"
)

func main() {
	layout := flag.String("layout", "", "OCI layout directory")
	from := flag.String("from", "", "baseline image tag")
	to := flag.String("to", "", "derived image tag")
	flag.Parse()
	if *layout == "" || *from == "" || *to == "" {
		fmt.Fprintln(os.Stderr, "usage: comtainer-diff -layout <dir.oci> -from <tag> -to <tag>")
		os.Exit(2)
	}
	if err := run(*layout, *from, *to); err != nil {
		fmt.Fprintln(os.Stderr, "comtainer-diff:", err)
		os.Exit(1)
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

func run(layoutDir, fromTag, toTag string) error {
	repo, err := oci.LoadLayout(layoutDir)
	if err != nil {
		return err
	}
	fromImg, err := repo.LoadByTag(fromTag)
	if err != nil {
		return err
	}
	toImg, err := repo.LoadByTag(toTag)
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
	origin := func(p string) string {
		if o, ok := origins[p]; ok {
			return string(o)
		}
		return "-"
	}

	var added, removed, changed []*fsim.File
	err = toFS.Walk(func(tf *fsim.File) error {
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
	})
	if err != nil {
		return err
	}
	err = fromFS.Walk(func(ff *fsim.File) error {
		if ff.Type != fsim.TypeDir && !toFS.Exists(ff.Path) {
			removed = append(removed, ff)
		}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("diff %s -> %s: %d added, %d changed, %d removed\n\n",
		fromTag, toTag, len(added), len(changed), len(removed))
	list := func(mark string, files []*fsim.File) {
		for _, f := range files {
			fmt.Printf("%s %-9s %-45s %s\n", mark, origin(f.Path), f.Path, describe(f))
		}
	}
	list("A", added)
	list("M", changed)
	list("D", removed)
	return nil
}
