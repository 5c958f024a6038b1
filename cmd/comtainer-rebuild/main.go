// Command comtainer-rebuild performs the system-side rebuild step on an
// extended image stored in an OCI layout directory: system adapters
// transform the cached process models and the build graph re-executes
// under the target system's toolchain, appending a rebuild layer (+coMre).
//
// Usage:
//
//	comtainer-rebuild -layout ./lulesh.dist.oci -system x86-64 -adapters libo,cxxo,lto \
//	                  -action-cache ~/.cache/comtainer-actions
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"comtainer/internal/actioncache"
	"comtainer/internal/core/adapter"
	"comtainer/internal/core/backend"
	"comtainer/internal/core/cache"
	"comtainer/internal/oci"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
)

func main() {
	layout := flag.String("layout", "", "OCI layout directory holding the extended image")
	sysName := flag.String("system", "x86-64", "target system: x86-64 or aarch64")
	adapterList := flag.String("adapters", "libo,cxxo", "comma-separated adapter chain: libo,cxxo,lto,cross-isa")
	cacheDir := flag.String("action-cache", "", "directory of the action cache (empty = caching off)")
	cacheCap := flag.Int64("action-cache-cap", 0, "byte cap of the action cache (0 = unbounded); evicts whole segments, least recently used first")
	workers := flag.Int("j", 0, "max concurrent build commands (0 = min(GOMAXPROCS, 8))")
	remoteExec := flag.String("remote-exec", "", "scheduler URL of a remote-execution farm (a comtainer-registry with -exec); cache misses execute there, with local fallback")
	flag.Parse()
	if *layout == "" {
		fmt.Fprintln(os.Stderr, "usage: comtainer-rebuild -layout <dir.oci> -system <name> [-adapters ...] [-action-cache <dir>] [-remote-exec <url>] [-j N]")
		os.Exit(2)
	}
	if err := run(*layout, *sysName, *adapterList, *cacheDir, *remoteExec, *cacheCap, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "comtainer-rebuild:", err)
		os.Exit(1)
	}
}

// buildMemo is a memoizer over a DiskCache under cacheDir, or nil —
// caching off — when there is no directory.
func buildMemo(cacheDir string, cacheCap int64) (*actioncache.Memoizer, error) {
	if cacheDir == "" {
		return nil, nil
	}
	disk, err := actioncache.NewDiskCache(cacheDir, cacheCap)
	if err != nil {
		return nil, err
	}
	return actioncache.NewMemoizer(disk), nil
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

func run(layoutDir, sysName, adapterSpec, cacheDir, remoteExec string, cacheCap int64, workers int) error {
	repo, err := oci.LoadLayout(layoutDir)
	if err != nil {
		return err
	}
	memo, err := buildMemo(cacheDir, cacheCap)
	if err != nil {
		return err
	}
	sys, err := sysprofile.ByName(sysName)
	if err != nil {
		return err
	}
	// The rebuild container's base images come from the system side.
	if err := sysprofile.PopulateSystemSide(repo, sys); err != nil {
		return err
	}
	adapters, err := parseAdapters(adapterSpec)
	if err != nil {
		return err
	}
	extended := cache.DistTags(repo.Tags(), cache.ExtendedSuffix)
	if len(extended) == 0 {
		return fmt.Errorf("layout holds no extended image (+coM tag); run comtainer-build first")
	}
	distTag := extended[0] // of several, the first in tag order
	var farm *remoteexec.Executor
	if remoteExec != "" {
		// The rebuild executes under the system's Sysenv registry (the
		// backend default), so the farm platform carries its fingerprint.
		farm = remoteexec.NewExecutor(remoteExec, sys, sys.Toolchains)
	}
	desc, report, err := backend.Rebuild(repo, distTag, backend.RebuildOptions{
		System:     sys,
		Adapters:   adapters,
		Memo:       memo,
		Workers:    workers,
		RemoteExec: farm,
	})
	if err != nil {
		return err
	}
	if err := repo.SaveLayout(layoutDir); err != nil {
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
