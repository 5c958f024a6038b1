// Command comtainer-registry serves an OCI distribution registry — the
// repository hop between the user side and the HPC systems.
//
// By default images live in memory and vanish with the process. With
// -data the registry persists blobs (sharded content-addressed files),
// tags and in-progress upload spools under the given directory, so a
// restarted registry serves everything previously pushed.
//
// Usage:
//
//	comtainer-registry -addr 127.0.0.1:5000 [-data /var/lib/comtainer-registry] [-gc] [-fsck] [-upload-ttl 1h]
//
// -gc runs reference-counting garbage collection on startup, deleting
// every blob unreachable from the tagged manifests.
//
// -fsck (requires -data) runs a full consistency repair on startup:
// every blob is rehashed against its name, corrupt or misplaced files
// are quarantined, orphaned upload temps are removed and tags pointing
// at missing manifests are swept, with a report printed before
// serving. A lighter version of the same recovery (temp sweep, corrupt
// quarantine, dangling-ref sweep) runs on every -data open regardless.
//
// -upload-ttl expires upload sessions idle longer than the given
// duration, reclaiming their spool files (0 disables expiry); with
// -proxy it bounds the sessions the proxy spools in memory.
//
// -exec additionally mounts the remote-execution farm scheduler under
// /farm/v1 on the same listener, turning the registry into the farm's
// combined control plane and blob plane: comtainer-worker nodes
// register here and comtainer-rebuild -remote-exec submits here.
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
// Every commit is appended to a durable write log (replication.log
// under -data) and pushed to each follower before the client's push is
// acknowledged, so killing a leader loses no acknowledged write.
//
// The stateless front-end runs with -proxy and one -shard flag per
// shard group (comma-separated replica URLs, first is the initial
// leader):
//
//	comtainer-registry -addr :5000 -proxy \
//	    -shard http://host1:5001,http://host2:5001 \
//	    -shard http://host3:5001,http://host4:5001 \
//	    [-proxy-cache /var/cache/comtainer -proxy-cache-cap 1073741824] \
//	    [-redirect-reads] [-farm http://scheduler:6000] [-heartbeat 5s]
//
// The proxy speaks the same /v2 API: it routes blob traffic to the
// owning shard by consistent hashing, fans manifests and tags out to
// every shard, pull-through caches blobs in a bounded local store,
// promotes a follower when a leader stops answering (per-request and
// via -heartbeat pings), shows its routing table at /fleet/v1/table
// (ring membership and current leaders), and with -farm forwards
// /farm/v1 to a scheduler so farm workers need only the proxy URL.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:5000", "listen address")
	data := flag.String("data", "", "persist blobs and tags under this directory (default: in memory)")
	gc := flag.Bool("gc", false, "garbage-collect unreachable blobs on startup")
	fsck := flag.Bool("fsck", false, "verify and repair the blob store on startup (requires -data)")
	uploadTTL := flag.Duration("upload-ttl", time.Hour, "expire upload sessions idle longer than this (0 = never)")
	execFarm := flag.Bool("exec", false, "also serve the remote-execution farm scheduler under /farm/v1")
	fleetMember := flag.Bool("fleet-member", false, "run as a fleet shard replica: trust manifest references (the proxy checks them fleet-wide)")
	var followers multiFlag
	flag.Var(&followers, "follower", "replicate every commit to this peer replica URL before acknowledging (repeatable)")
	proxyMode := flag.Bool("proxy", false, "run as the fleet front-end proxy instead of a storage registry")
	var shards multiFlag
	flag.Var(&shards, "shard", "proxy: one shard group as comma-separated replica URLs, first is the initial leader (repeatable)")
	proxyCache := flag.String("proxy-cache", "", "proxy: pull-through cache directory (default: no cache)")
	proxyCacheCap := flag.Int64("proxy-cache-cap", 1<<30, "proxy: pull-through cache capacity in bytes (0 = unbounded)")
	redirectReads := flag.Bool("redirect-reads", false, "proxy: answer uncached blob GETs with a redirect to the owning shard")
	farm := flag.String("farm", "", "proxy: forward /farm/v1 to this scheduler URL")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "proxy: leader heartbeat interval (0 = promote only on request failure)")
	flag.Parse()

	if *proxyMode {
		runProxy(*addr, shards, *proxyCache, *proxyCacheCap, *redirectReads, *farm, *heartbeat, *uploadTTL)
		return
	}

	var srv *registry.Server
	if *data != "" {
		var err error
		srv, err = registry.NewServerAt(*data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("comtainer-registry persisting under %s (%d blobs)\n", *data, len(srv.Blobs().Digests()))
	} else {
		srv = registry.NewServer()
		fmt.Println("comtainer-registry running in memory (use -data to persist)")
	}
	srv.SetUploadTTL(*uploadTTL)
	if *fleetMember {
		srv.TrustReferences = true
		fmt.Println("comtainer-registry running as a fleet shard replica")
	}
	if len(followers) > 0 {
		logPath := ""
		if *data != "" {
			logPath = filepath.Join(*data, "replication.log")
		}
		//comtainer:allow closeleak -- ownership transfers to the replicator; the log lives for the process lifetime
		wlog, err := fleet.NewWriteLog(logPath)
		if err != nil {
			log.Fatal(err)
		}
		srv.SetCommitHook(fleet.NewReplicator(srv.Blobs(), wlog, followers...))
		fmt.Printf("comtainer-registry replicating commits to %s\n", strings.Join(followers, ", "))
	}
	if *fsck {
		rep, swept, err := srv.Fsck(true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rep)
		for _, ref := range swept {
			fmt.Printf("fsck: swept dangling ref %s\n", ref)
		}
	}
	if *gc {
		dropped, err := srv.GC()
		if err != nil {
			log.Fatal(err)
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
	fmt.Printf("comtainer-registry listening on %s\n", *addr)
	log.Fatal(http.ListenAndServe(*addr, handler))
}

// runProxy assembles and serves the fleet front-end.
func runProxy(addr string, shards []string, cacheDir string, cacheCap int64, redirectReads bool, farm string, heartbeat, uploadTTL time.Duration) {
	if len(shards) == 0 {
		log.Fatal("comtainer-registry: -proxy requires at least one -shard")
	}
	groups := make([]*fleet.ShardGroup, 0, len(shards))
	for _, s := range shards {
		replicas := strings.Split(s, ",")
		for i := range replicas {
			replicas[i] = strings.TrimRight(strings.TrimSpace(replicas[i]), "/")
		}
		g, err := fleet.NewShardGroup(replicas[0], replicas...)
		if err != nil {
			log.Fatal(err)
		}
		groups = append(groups, g)
	}
	p, err := fleet.NewProxy(groups, 0)
	if err != nil {
		log.Fatal(err)
	}
	p.RedirectReads = redirectReads
	p.FarmBackend = farm
	p.Uploads().TTL = uploadTTL
	if cacheDir != "" {
		store, err := distrib.NewDiskStore(cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.SetCache(store, cacheCap); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("comtainer-registry proxy caching blobs under %s (cap %d bytes)\n", cacheDir, cacheCap)
	}
	if heartbeat > 0 {
		//comtainer:allow gonaked,ctxflow -- process-lifetime heartbeat loop; it ends when the process does
		go p.Watch(context.Background(), heartbeat)
	}
	if farm != "" {
		fmt.Printf("comtainer-registry proxy forwarding /farm/v1 to %s\n", farm)
	}
	fmt.Printf("comtainer-registry proxy fronting %d shard group(s), listening on %s\n", len(groups), addr)
	log.Fatal(http.ListenAndServe(addr, p.Handler()))
}
