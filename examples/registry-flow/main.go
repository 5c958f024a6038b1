// registry-flow runs the coMtainer workflow across a real HTTP boundary:
// the user side pushes the extended image to an OCI registry served over
// localhost, the "remote" HPC system pulls it, rebuilds, redirects and
// runs — the full Figure-1 distribution picture.
//
// The registry persists to disk via internal/distrib: after the push the
// example stops the server (daemon.Serve drains it, as it does
// comtainer-registry's) and starts a fresh one over the same data
// directory, proving the pull works across a registry restart. Transfers
// run through the concurrent client (parallel layers, each blob pushed
// in one request, cross-image blob dedup).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"

	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/daemon"
	"comtainer/internal/registry"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// withRegistry serves a disk-backed registry over dataDir on an
// ephemeral localhost port while fn runs with its base URL, then stops
// it the way a signal stops comtainer-registry.
func withRegistry(ctx context.Context, dataDir string, fn func(base string) error) error {
	srv, err := registry.NewServerAt(dataDir)
	if err != nil {
		return err
	}
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- daemon.Serve(ctx, ln, srv.Handler()) }()
	err = fn("http://" + ln.Addr().String())
	stop()
	return errors.Join(err, <-served)
}

func main() {
	ctx := context.Background()
	dataDir, err := os.MkdirTemp("", "comtainer-registry-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	// User side: build and push with the concurrent client.
	user, err := core.NewUserSide(toolchain.ISAx86)
	if err != nil {
		log.Fatal(err)
	}
	app, err := workloads.Find("hpcg")
	if err != nil {
		log.Fatal(err)
	}
	res, err := user.BuildExtended(app)
	if err != nil {
		log.Fatal(err)
	}
	err = withRegistry(ctx, dataDir, func(base string) error {
		fmt.Printf("registry listening at %s, persisting under %s\n", base, dataDir)
		client := registry.NewClient(base)
		client.Workers = 8
		if err := client.Ping(ctx); err != nil {
			return err
		}
		return client.Push(ctx, user.Repo, res.ExtendedTag, "user/hpcg", "v1")
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pushed %s as user/hpcg:v1 (8 parallel layer uploads)\n", res.ExtendedTag)

	// Restart the registry over the same data directory: everything
	// pushed must survive.
	// System side: pull over HTTP into its own store, then adapt and run.
	sys := sysprofile.X86Cluster()
	system, err := core.NewSystemSide(sys)
	if err != nil {
		log.Fatal(err)
	}
	err = withRegistry(ctx, dataDir, func(base string) error {
		fmt.Printf("registry restarted at %s from persisted state\n", base)
		client := registry.NewClient(base)
		client.Workers = 8
		return client.Pull(ctx, system.Repo, "user/hpcg", "v1", res.ExtendedTag)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pulled user/hpcg:v1 on the %s system (parallel layer fetch)\n", sys.Name)
	optTag, err := system.Adapt(res.DistTag, adapter.DefaultAdapted())
	if err != nil {
		log.Fatal(err)
	}
	var ref workloads.Ref
	for _, r := range workloads.AllRefs() {
		if r.ID() == "hpcg" {
			ref = r
		}
	}
	out, err := system.Run(optTag, ref, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adapted image runs hpcg in %.2f s on %d nodes (binary: %s/%s)\n",
		out.Seconds, 16, out.Binary.Toolchain, out.Binary.March)
}
