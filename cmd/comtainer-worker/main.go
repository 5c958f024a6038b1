// Command comtainer-worker is a build-farm execution node: it
// registers with a comtainer-registry running the farm scheduler
// (-exec), leases rebuild actions matching its system's ISA and
// toolchain fingerprint, executes them against the executor's shipped
// file-system snapshot plus the outputs each task carries, and reports
// each action's record (what it read and wrote) to the scheduler. It
// caches nothing: the rebuilding client stores each record in its own
// action cache.
//
// Usage:
//
//	comtainer-worker -scheduler http://127.0.0.1:5000 -system x86-64 -slots 4
//
// The scheduler URL also serves the one kind of farm blob, the layers
// a session's file system is shipped as; point it at a registry started
// with -exec. The worker
// executes under the system's vendor toolchains (its Sysenv), the one
// registry `comtainer rebuild -remote-exec` submits under.
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

	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
)

func main() {
	scheduler := flag.String("scheduler", "http://127.0.0.1:5000", "farm scheduler base URL (a comtainer-registry with -exec)")
	sysName := flag.String("system", "x86-64", "system profile to execute as: x86-64 or aarch64")
	slots := flag.Int("slots", 4, "concurrent execution slots")
	name := flag.String("name", "", "worker name in farm status (default: system name)")
	execDelay := flag.Duration("exec-delay", 0, "artificial per-action delay (testing/benchmarking)")
	flag.Parse()

	if err := run(*scheduler, *sysName, *name, *slots, *execDelay); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "comtainer-worker:", err)
		os.Exit(1)
	}
}

func run(scheduler, sysName, name string, slots int, execDelay time.Duration) error {
	sys, err := sysprofile.ByName(sysName)
	if err != nil {
		return err
	}
	w := remoteexec.NewWorker(scheduler, sys, sys.Toolchains)
	w.Slots = slots
	w.ExecDelay = execDelay
	if name != "" {
		w.Name = name
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("comtainer-worker %q serving %s with %d slots at %s\n",
		w.Name, sys.Name, slots, scheduler)
	return w.Run(ctx)
}
