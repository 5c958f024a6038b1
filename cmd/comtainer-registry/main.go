// Command comtainer-registry serves an OCI distribution registry — the
// repository hop between the user side and the HPC systems.
//
// By default images live in memory and vanish with the process. With
// -data the registry persists blobs (content-addressed files) and tags
// (one append-only log, tags.log, synced on every write) under the
// given directory, so a restarted registry serves everything previously
// pushed. The directory is an image directory, the OCI image layout
// `comtainer build -o` writes: the registry serves its tags at
// /v2/layout/. Opening the directory is the recovery
// pass: every blob is rehashed against its name, corrupt or misplaced
// files are quarantined, writes a crash interrupted are swept and tags
// pointing at missing manifests are dropped; what it repaired is
// printed before serving.
//
// Usage:
//
//	comtainer-registry -addr 127.0.0.1:5000 [-data /var/lib/comtainer-registry] [-gc] [-upload-ttl 1h]
//
// -gc runs reference-counting garbage collection on startup, deleting
// every blob unreachable from the tagged manifests.
//
// -exec additionally mounts the remote-execution farm scheduler under
// /farm/v1 on the same listener, turning the registry into the farm's
// combined control plane and blob plane: comtainer-worker nodes
// register here and comtainer rebuild -remote-exec submits here.
//
// # Serving and stopping
//
// Every mode serves through daemon.Serve and prints the address it
// bound (-addr 127.0.0.1:0 picks a free port). Headers must arrive
// within 10 s and an idle connection closes after 2 min; a body is
// bounded by progress, not total time, and is cut once it delivers
// nothing for 1 min. Upload sessions are held in memory in every mode:
// a cut PATCH keeps the bytes that arrived and resumes from its Range
// until -upload-ttl (0 = never) expires the idle session, and a restart
// forgets every session (its client starts again from the POST).
// SIGINT or SIGTERM stops accepting, lets requests in flight finish for
// up to 25 s, closes the rest and the replication log, and exits 0; a
// failure to start or to keep listening exits 1.
//
// # Fleet mode
//
// The registry also scales out into a sharded, replicated fleet.
//
// A storage shard replica adds -fleet-member (skip local referential
// checks — the fronting proxy performs them fleet-wide) and, on the
// replica currently leading, -follower for each peer replica:
//
//	comtainer-registry -addr :5001 -data /srv/shard-a1 -fleet-member -follower http://host2:5001
//
// Every commit is pushed to each follower before the client's push is
// acknowledged, and a blob's is appended to a durable write log
// (replication.log under -data), so killing a leader loses no
// acknowledged write. Each replica's tag log records the tags.
//
// The stateless front-end runs with -proxy and one -shard flag per
// shard group (comma-separated replica URLs, first is the initial
// leader):
//
//	comtainer-registry -addr :5000 -proxy \
//	    -shard http://host1:5001,http://host2:5001 \
//	    -shard http://host3:5001,http://host4:5001 \
//	    [-farm http://scheduler:6000] [-heartbeat 5s]
//
// The proxy speaks the same /v2 API: it routes blob traffic to the
// owning shard by consistent hashing and relays every blob read from
// it (the proxy keeps no blobs), fans manifests and tags out to every
// shard, promotes a follower when a leader stops answering
// (per-request and via -heartbeat pings), shows its routing table at
// /fleet/v1/table (ring membership and current leaders), and with
// -farm forwards /farm/v1 to a scheduler so farm workers need only the
// proxy URL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"comtainer/internal/daemon"
	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:5000", "listen address")
	data := flag.String("data", "", "persist blobs and tags under this directory (default: in memory)")
	gc := flag.Bool("gc", false, "garbage-collect unreachable blobs on startup")
	uploadTTL := flag.Duration("upload-ttl", time.Hour, "expire upload sessions idle longer than this (0 = never)")
	execFarm := flag.Bool("exec", false, "also serve the remote-execution farm scheduler under /farm/v1")
	fleetMember := flag.Bool("fleet-member", false, "run as a fleet shard replica: trust manifest references (the proxy checks them fleet-wide)")
	var followers, shards []string
	flag.Func("follower", "replicate every commit to this peer replica URL before acknowledging (repeatable)", func(v string) error { followers = append(followers, v); return nil })
	proxyMode := flag.Bool("proxy", false, "run as the fleet front-end proxy instead of a storage registry")
	flag.Func("shard", "proxy: one shard group as comma-separated replica URLs, first is the initial leader (repeatable)", func(v string) error { shards = append(shards, v); return nil })
	farm := flag.String("farm", "", "proxy: forward /farm/v1 to this scheduler URL")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "proxy: leader heartbeat interval (0 = promote only on request failure)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *proxyMode {
		return runProxy(ctx, *addr, shards, *farm, *heartbeat, *uploadTTL)
	}

	var srv *registry.Server
	if *data != "" {
		var err error
		srv, err = registry.NewServerAt(*data)
		if err != nil {
			return err
		}
		fmt.Printf("comtainer-registry persisting under %s (%d blobs)\n", *data, len(srv.Blobs().Digests()))
		if ds, ok := srv.Blobs().(*distrib.DiskStore); ok && !ds.OpenReport().Clean() {
			fmt.Println(ds.OpenReport())
		}
	} else {
		srv = registry.NewServer()
		fmt.Println("comtainer-registry running in memory (use -data to persist)")
	}
	srv.Uploads().TTL = *uploadTTL
	if *fleetMember {
		srv.TrustReferences = true
		fmt.Println("comtainer-registry running as a fleet shard replica")
	}
	if len(followers) > 0 {
		logPath := ""
		if *data != "" {
			logPath = filepath.Join(*data, "replication.log")
		}
		wlog, err := fleet.NewWriteLog(logPath)
		if err != nil {
			return err
		}
		defer wlog.Close() // after Serve: every commit the drain let finish is logged
		srv.SetCommitHook(fleet.NewReplicator(srv.Blobs(), wlog, followers...))
		fmt.Printf("comtainer-registry replicating commits to %s\n", strings.Join(followers, ", "))
	}
	if *gc {
		dropped, err := srv.GC()
		if err != nil {
			return err
		}
		fmt.Printf("gc: dropped %d unreachable blobs\n", dropped)
	}
	handler := srv.Handler()
	if *execFarm {
		mux := http.NewServeMux()
		mux.Handle(remoteexec.APIPrefix+"/", remoteexec.NewScheduler().Handler())
		mux.Handle("/", handler)
		handler = mux
		fmt.Printf("comtainer-registry serving the farm scheduler under %s\n", remoteexec.APIPrefix)
	}
	return serve(ctx, *addr, handler, "comtainer-registry listening on %s\n")
}

// runProxy assembles and serves the fleet front-end.
func runProxy(ctx context.Context, addr string, shards []string, farm string, heartbeat, uploadTTL time.Duration) error {
	if len(shards) == 0 {
		return errors.New("comtainer-registry: -proxy requires at least one -shard")
	}
	groups := make([]*fleet.ShardGroup, 0, len(shards))
	for _, s := range shards {
		replicas := strings.Split(s, ",")
		for i := range replicas {
			replicas[i] = strings.TrimRight(strings.TrimSpace(replicas[i]), "/")
		}
		g, err := fleet.NewShardGroup(replicas[0], replicas...)
		if err != nil {
			return err
		}
		groups = append(groups, g)
	}
	p, err := fleet.NewProxy(groups, 0)
	if err != nil {
		return err
	}
	p.FarmBackend = farm
	p.Uploads().TTL = uploadTTL
	var watching sync.WaitGroup
	defer watching.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // before the Wait: a failed listen ends the heartbeat loop too
	if heartbeat > 0 {
		watching.Add(1)
		go func() {
			defer watching.Done()
			p.Watch(ctx, heartbeat)
		}()
	}
	if farm != "" {
		fmt.Printf("comtainer-registry proxy forwarding /farm/v1 to %s\n", farm)
	}
	return serve(ctx, addr, p.Handler(), fmt.Sprintf("comtainer-registry proxy fronting %d shard group(s), listening on %%s\n", len(groups)))
}

// serve listens on addr, prints banner with the bound address (so
// -addr 127.0.0.1:0 tells its port) and serves h until ctx is done.
func serve(ctx context.Context, addr string, h http.Handler, banner string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close() // Serve closes it as it stops; closing twice is harmless
	fmt.Printf(banner, ln.Addr())
	return daemon.Serve(ctx, ln, h)
}
