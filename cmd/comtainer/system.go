package main

import (
	"cmp"
	"flag"
	"fmt"
	"strings"

	"comtainer/internal/actioncache"
	"comtainer/internal/core/adapter"
	"comtainer/internal/core/backend"
	"comtainer/internal/core/cache"
	"comtainer/internal/oci"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
)

// systemSide opens the store at ref and adds the system's own images,
// the Sysenv and Rebase images a rebuild and a redirect start from.
func systemSide(ref, sysName string) (*oci.Repository, *sysprofile.System, error) {
	repo, err := open(ref)
	if err != nil {
		return nil, nil, err
	}
	sys, err := sysprofile.ByName(sysName)
	if err != nil {
		return nil, nil, err
	}
	return repo, sys, sysprofile.PopulateSystemSide(repo, sys)
}

// rebuild performs the system-side rebuild of the store's first
// extended image in tag order: system adapters transform the cached
// process models and the build graph re-executes under the target
// system's toolchain, appending a rebuild layer (+coMre).
func rebuild(fs *flag.FlagSet) func() error {
	layout := fs.String("layout", "", "OCI layout directory or registry repository URL holding the extended image")
	sysName := fs.String("system", "x86-64", "target system: x86-64 or aarch64")
	adapterList := fs.String("adapters", "libo,cxxo", "comma-separated adapter chain: libo,cxxo,lto,cross-isa")
	cacheDir := fs.String("action-cache", "", "directory of the action cache (empty = caching off)")
	cacheCap := fs.Int64("action-cache-cap", 0, "byte cap of the action cache (0 = unbounded); evicts whole segments, least recently used first")
	workers := fs.Int("j", 0, "max concurrent build commands (0 = min(GOMAXPROCS, 8))")
	remoteExec := fs.String("remote-exec", "", "scheduler URL of a remote-execution farm (a comtainer-registry with -exec); cache misses execute there, with local fallback")
	return func() error {
		if *layout == "" {
			return usage("-layout <dir.oci|url> -system <name> [-adapters ...] [-action-cache <dir>] [-remote-exec <url>] [-j N]")
		}
		repo, sys, err := systemSide(*layout, *sysName)
		if err != nil {
			return err
		}
		var memo *actioncache.Memoizer // nil: caching off
		if *cacheDir != "" {
			disk, err := actioncache.NewDiskCache(*cacheDir, *cacheCap)
			if err != nil {
				return err
			}
			memo = actioncache.NewMemoizer(disk)
		}
		adapters, err := parseAdapters(*adapterList)
		if err != nil {
			return err
		}
		extended := cache.DistTags(repo.Tags(), cache.ExtendedSuffix)
		if len(extended) == 0 {
			return fmt.Errorf("layout holds no extended image (+coM tag); run comtainer build first")
		}
		distTag := extended[0] // of several, the first in tag order
		var farm *remoteexec.Executor
		if *remoteExec != "" {
			// The rebuild executes under the system's Sysenv registry (the
			// backend default), so the farm platform carries its fingerprint.
			farm = remoteexec.NewExecutor(*remoteExec, sys, sys.Toolchains)
		}
		desc, report, err := backend.Rebuild(repo, distTag, backend.RebuildOptions{
			System:     sys,
			Adapters:   adapters,
			Memo:       memo,
			Workers:    *workers,
			RemoteExec: farm,
		})
		if err != nil {
			return err
		}
		if err := save(repo, *layout); err != nil {
			return err
		}
		fmt.Printf("rebuilt %s for %s -> %s (%s)\n", distTag, sys.Name, cache.RebuiltTag(distTag), desc.Digest.Short())
		fmt.Printf("adapted %d build commands\n", report.ChangedCommands)
		if memo != nil {
			fmt.Printf("action cache: %s\n", memo.Stats())
		}
		if farm != nil {
			fmt.Printf("remote exec: %s\n", farm.Stats())
		}
		for _, n := range report.Notes {
			fmt.Println(" ", n)
		}
		return nil
	}
}

// parseAdapters resolves adapter names to the built-in chain.
func parseAdapters(spec string) ([]adapter.Adapter, error) {
	var out []adapter.Adapter
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "libo":
			out = append(out, adapter.Libo())
		case "cxxo":
			out = append(out, adapter.Toolchain())
		case "lto":
			out = append(out, adapter.LTO())
		case "cross-isa":
			// Cross-ISA must run first so later adapters see a coherent ISA.
			out = append([]adapter.Adapter{adapter.CrossISA()}, out...)
		case "":
		default:
			return nil, fmt.Errorf("unknown adapter %q (have libo, cxxo, lto, cross-isa)", name)
		}
	}
	if len(out) == 0 {
		out = adapter.DefaultAdapted()
	}
	return out, nil
}

// redirect performs the system-side redirect of the store's last
// rebuilt image in tag order: starting from the Rebase image, it
// installs the (vendor-optimized) runtime packages, extracts the rebuilt
// artifacts and carried data from the +coMre image, and commits the
// final optimized image.
func redirect(fs *flag.FlagSet) func() error {
	layout := fs.String("layout", "", "OCI layout directory or registry repository URL holding the rebuilt image")
	sysName := fs.String("system", "x86-64", "target system: x86-64 or aarch64")
	outTag := fs.String("tag", "", "tag for the optimized image (default <dist>.redirect)")
	return func() error {
		if *layout == "" {
			return usage("-layout <dir.oci|url> -system <name>")
		}
		repo, sys, err := systemSide(*layout, *sysName)
		if err != nil {
			return err
		}
		rebuilt := cache.DistTags(repo.Tags(), cache.RebuiltSuffix)
		if len(rebuilt) == 0 {
			return fmt.Errorf("layout holds no rebuilt image (+coMre tag); run comtainer rebuild first")
		}
		distTag := rebuilt[len(rebuilt)-1] // of several, the last in tag order
		tag := cmp.Or(*outTag, distTag+".redirect")
		desc, err := backend.Redirect(repo, distTag, backend.RedirectOptions{System: sys, OptimizedTag: tag})
		if err != nil {
			return err
		}
		if err := save(repo, *layout); err != nil {
			return err
		}
		fmt.Printf("redirected %s -> %s (%s), optimized for %s\n", distTag, tag, desc.Digest.Short(), sys.Name)
		return nil
	}
}
