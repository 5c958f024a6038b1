// Command comtainer-redirect performs the system-side redirect step:
// starting from the Rebase image, it installs the (vendor-optimized)
// runtime packages, extracts the rebuilt artifacts and carried data from
// the +coMre image, and commits the final optimized image.
//
// Usage:
//
//	comtainer-redirect -layout ./lulesh.dist.oci -system x86-64
package main

import (
	"flag"
	"fmt"
	"os"

	"comtainer/internal/core/backend"
	"comtainer/internal/core/cache"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
)

func main() {
	layout := flag.String("layout", "", "OCI layout directory holding the rebuilt image")
	sysName := flag.String("system", "x86-64", "target system: x86-64 or aarch64")
	outTag := flag.String("tag", "", "tag for the optimized image (default <dist>.redirect)")
	flag.Parse()
	if *layout == "" {
		fmt.Fprintln(os.Stderr, "usage: comtainer-redirect -layout <dir.oci> -system <name>")
		os.Exit(2)
	}
	if err := run(*layout, *sysName, *outTag); err != nil {
		fmt.Fprintln(os.Stderr, "comtainer-redirect:", err)
		os.Exit(1)
	}
}

func run(layoutDir, sysName, outTag string) error {
	repo, err := oci.LoadLayout(layoutDir)
	if err != nil {
		return err
	}
	sys, err := sysprofile.ByName(sysName)
	if err != nil {
		return err
	}
	if err := sysprofile.PopulateSystemSide(repo, sys); err != nil {
		return err
	}
	rebuilt := cache.DistTags(repo.Tags(), cache.RebuiltSuffix)
	if len(rebuilt) == 0 {
		return fmt.Errorf("layout holds no rebuilt image (+coMre tag); run comtainer-rebuild first")
	}
	distTag := rebuilt[len(rebuilt)-1] // of several, the last in tag order
	desc, err := backend.Redirect(repo, distTag, backend.RedirectOptions{
		System:       sys,
		OptimizedTag: outTag,
	})
	if err != nil {
		return err
	}
	if outTag == "" {
		outTag = distTag + ".redirect"
	}
	if err := repo.SaveLayout(layoutDir); err != nil {
		return err
	}
	fmt.Printf("redirected %s -> %s (%s), optimized for %s\n", distTag, outTag, desc.Digest.Short(), sys.Name)
	return nil
}
