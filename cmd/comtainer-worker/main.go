// Command comtainer-worker is a build-farm execution node: it
// registers with a comtainer-registry running the farm scheduler
// (-exec), leases rebuild actions matching its system's ISA and
// toolchain fingerprint, executes them against the executor's shipped
// file-system snapshot, and publishes each action's record (what it
// read and wrote) — warming the registry's shared action cache with
// every execution.
//
// Usage:
//
//	comtainer-worker -scheduler http://127.0.0.1:5000 -system x86-64 -toolchain sysenv -slots 4
//
// The scheduler URL also serves the blob traffic (snapshots, overlays,
// action records) and the shared action cache; point it at a registry
// started with -exec. -toolchain selects which registry the worker
// executes under: sysenv (the system's vendor toolchain), generic
// (stock base-image toolchain) or llvm (redistributable Sysenv).
// Workers only receive tasks whose toolchain fingerprint matches, so
// running the wrong flavor is safe — just useless.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

func main() {
	scheduler := flag.String("scheduler", "http://127.0.0.1:5000", "farm scheduler base URL (a comtainer-registry with -exec)")
	sysName := flag.String("system", "x86-64", "system profile to execute as: x86-64 or aarch64")
	tcFlavor := flag.String("toolchain", "sysenv", "toolchain registry to execute under: sysenv, generic or llvm")
	slots := flag.Int("slots", 4, "concurrent execution slots")
	name := flag.String("name", "", "worker name in farm status (default: system name)")
	noCache := flag.Bool("no-action-cache", false, "do not write results through to the registry's shared action cache")
	execDelay := flag.Duration("exec-delay", 0, "artificial per-action delay (testing/benchmarking)")
	flag.Parse()

	if err := run(*scheduler, *sysName, *tcFlavor, *name, *slots, *noCache, *execDelay); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "comtainer-worker:", err)
		os.Exit(1)
	}
}

func registryFor(sys *sysprofile.System, flavor string) (*toolchain.Registry, error) {
	switch flavor {
	case "sysenv":
		return sys.Toolchains, nil
	case "generic":
		return sys.GenericToolchains, nil
	case "llvm":
		return sys.LLVMRegistry(), nil
	default:
		return nil, fmt.Errorf("unknown toolchain flavor %q (have sysenv, generic, llvm)", flavor)
	}
}

func run(scheduler, sysName, tcFlavor, name string, slots int, noCache bool, execDelay time.Duration) error {
	sys, err := sysprofile.ByName(sysName)
	if err != nil {
		return err
	}
	reg, err := registryFor(sys, tcFlavor)
	if err != nil {
		return err
	}
	w := remoteexec.NewWorker(scheduler, sys, reg)
	w.Slots = slots
	w.ExecDelay = execDelay
	if name != "" {
		w.Name = name
	}
	if !noCache {
		w.Cache = actioncache.NewBreaker(actioncache.NewRemoteCacheClient(w.Client, ""))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("comtainer-worker %q serving %s/%s with %d slots at %s\n",
		w.Name, sys.Name, tcFlavor, slots, scheduler)
	return w.Run(ctx)
}
