// Command comtainer-inspect dumps the contents of an OCI layout: its
// tags and manifests, and — for coMtainer extended images — the embedded
// process models: image-model origin statistics, the build graph, and the
// recorded compilation commands.
//
// Usage:
//
//	comtainer-inspect -layout ./lulesh.dist.oci
//	comtainer-inspect -layout ./lulesh.dist.oci -tag lulesh.dist+coM -graph
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"comtainer/internal/core/cache"

	"comtainer/internal/oci"
)

func main() {
	layout := flag.String("layout", "", "OCI layout directory")
	tag := flag.String("tag", "", "inspect one tag in depth (default: list all)")
	graph := flag.Bool("graph", false, "print the full build graph of an extended image")
	flag.Parse()
	if *layout == "" {
		fmt.Fprintln(os.Stderr, "usage: comtainer-inspect -layout <dir.oci> [-tag t] [-graph]")
		os.Exit(2)
	}
	if err := run(*layout, *tag, *graph); err != nil {
		fmt.Fprintln(os.Stderr, "comtainer-inspect:", err)
		os.Exit(1)
	}
}

func run(layoutDir, tag string, showGraph bool) error {
	repo, err := oci.LoadLayout(layoutDir)
	if err != nil {
		return err
	}
	if tag == "" {
		fmt.Printf("%-36s %-14s %s\n", "tag", "digest", "layers")
		for _, t := range repo.Tags() {
			img, err := repo.LoadByTag(t)
			if err != nil {
				return err
			}
			roles := make([]string, 0, len(img.Manifest.Layers))
			for _, l := range img.Manifest.Layers {
				if r, ok := l.Annotations[oci.AnnotationLayerRole]; ok {
					roles = append(roles, r)
				} else {
					roles = append(roles, "rootfs")
				}
			}
			fmt.Printf("%-36s %-14s %s\n", t, img.Desc.Digest.Short(), strings.Join(roles, ","))
		}
		return nil
	}

	img, err := repo.LoadByTag(tag)
	if err != nil {
		return err
	}
	fmt.Printf("tag:          %s\n", tag)
	fmt.Printf("digest:       %s\n", img.Desc.Digest)
	fmt.Printf("architecture: %s\n", img.Config.Architecture)
	fmt.Printf("entrypoint:   %v\n", img.Config.Config.Entrypoint)
	fmt.Printf("layers:       %d\n", len(img.Manifest.Layers))
	m, _, err := cache.Read(img)
	if err != nil {
		fmt.Println("(no coMtainer cache layer)")
		return nil
	}
	fmt.Printf("build ISA:    %s\n", m.BuildISA)
	fmt.Println("image model origins:")
	for origin, n := range m.Image.CountByOrigin() {
		fmt.Printf("  %-8s %d files\n", origin, n)
	}
	fmt.Printf("packages:     %d\n", len(m.Image.Packages))
	fmt.Printf("build graph:  %d nodes (%d sources, %d products)\n",
		m.Graph.Len(), len(m.Graph.Sources()), len(m.Graph.Products()))
	fmt.Printf("installed products: %d\n", len(m.Installed))
	if showGraph {
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
