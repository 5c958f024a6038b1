package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"comtainer/internal/core/ctxutil"
	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
)

// server is one in-process HTTP server on a loopback port.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startServer(ctx context.Context, h http.Handler) (*server, error) {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	//comtainer:allow gonaked -- the accept loop belongs to the server value: close() stops it and waits on done
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always returns ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop; handlers still
// running after two seconds are cut off.
func (s *server) close(ctx context.Context) {
	// Tear-down also runs after a failure cancelled ctx.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // deadline passed: drop the connections
	}
	<-s.done
}

// replica is one registry of a shard group, persisted under dir.
type replica struct {
	disk *distrib.DiskStore
	reg  *registry.Server
	http *server
	log  *fleet.WriteLog // leaders only
}

// startReplica mounts a fleet-member registry on a disk blob store and
// disk tags under dir. Plain and traced replicas are built by the same
// calls and differ only in the interposers: traced, the disk store goes
// behind the store interposer and the handler behind the handler
// interposer.
//
// registry.NewServerWith is the one constructor that accepts a wrapped
// store, and it spools upload sessions in memory, where
// `comtainer-registry -data dir` (registry.NewServerAt) spools them
// under dir/uploads. Both kinds of replica therefore have the memory
// spool: every blob is still ingested into the disk store and logged
// before its acknowledgement, but no spool file is written.
func startReplica(ctx context.Context, dir string, tr *tracer) (*replica, error) {
	disk, err := distrib.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	refs, err := distrib.NewDiskTags(dir)
	if err != nil {
		return nil, err
	}
	var blobs distrib.Store = disk
	if tr != nil {
		blobs = &tracedStore{inner: disk, tr: tr}
	}
	r := &replica{disk: disk, reg: registry.NewServerWith(blobs, refs)}
	r.reg.TrustReferences = true
	h := r.reg.Handler()
	if tr != nil {
		h = &tracedHandler{inner: h, tr: tr, classify: classifyShard}
	}
	r.http, err = startServer(ctx, h)
	return r, err
}

func (r *replica) close(ctx context.Context) {
	if r.http != nil {
		r.http.close(ctx)
	}
	if r.log != nil {
		_ = r.log.Close() // nothing reads the log after the run
	}
}

// fleetShards is the shard count of the benchmark's fleet; each shard
// is a leader and one follower.
const fleetShards = 2

// registryFleet is a routing proxy over fleetShards × (leader +
// follower) disk-backed registries. Leaders replicate every commit to
// their follower through an fsynced write log before acknowledging.
// The proxy's pull-through cache is off, the CLI default.
type registryFleet struct {
	proxy     *fleet.Proxy
	front     *server
	leaders   map[string]*replica // by shard name
	followers map[string]*replica
}

func startFleet(ctx context.Context, dir string, tr *tracer) (*registryFleet, error) {
	f := &registryFleet{leaders: map[string]*replica{}, followers: map[string]*replica{}}
	var groups []*fleet.ShardGroup
	for i := 1; i <= fleetShards; i++ {
		// Stable names, not URLs: the ring hashes them, and blob
		// placement must not depend on the ports the kernel hands out.
		name := fmt.Sprintf("shard%d", i)
		follower, err := startReplica(ctx, filepath.Join(dir, name+"-follower"), tr)
		if follower != nil {
			f.followers[name] = follower
		}
		if err != nil {
			return f, err
		}
		leader, err := startReplica(ctx, filepath.Join(dir, name+"-leader"), tr)
		if leader != nil {
			f.leaders[name] = leader
		}
		if err != nil {
			return f, err
		}
		leader.log, err = fleet.NewWriteLog(filepath.Join(dir, name+"-leader", "replication.log"))
		if err != nil {
			return f, err
		}
		leader.reg.SetCommitHook(fleet.NewReplicator(leader.reg.Blobs(), leader.log, follower.http.url))
		g, err := fleet.NewShardGroup(name, leader.http.url, follower.http.url)
		if err != nil {
			return f, err
		}
		groups = append(groups, g)
	}
	var err error
	f.proxy, err = fleet.NewProxy(groups, 0)
	if err != nil {
		return f, err
	}
	h := f.proxy.Handler()
	if tr != nil {
		h = &tracedHandler{inner: h, tr: tr, classify: always("fleet.proxy")}
	}
	f.front, err = startServer(ctx, h)
	return f, err
}

// client returns a registry client for the fleet's front end with
// nproc transfer workers; traced, its transport is the interposer.
func (f *registryFleet) client(nproc int, tr *tracer) *registry.Client {
	c := registry.NewClient(f.front.url)
	c.Workers = nproc
	if tr != nil {
		c.HTTP = tracedClient(tr)
	}
	return c
}

// leaderBytes is the total blob size on the shard leaders.
func (f *registryFleet) leaderBytes() int64 {
	var n int64
	for _, r := range f.leaders {
		n += r.disk.TotalSize()
	}
	return n
}

func (f *registryFleet) close(ctx context.Context) {
	if f.front != nil {
		f.front.close(ctx)
	}
	for _, r := range f.leaders {
		r.close(ctx)
	}
	for _, r := range f.followers {
		r.close(ctx)
	}
}

// farm is a build farm on one in-process server: the scheduler and the
// registry that carries its trees, overlays and payloads co-mounted,
// the way `comtainer-registry -exec` serves them, plus single-slot
// workers with no simulated compile delay.
type farm struct {
	front  *server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFarm(ctx context.Context, sys *sysprofile.System, workers int, tr *tracer) (*farm, error) {
	sched := remoteexec.NewScheduler()
	var schedH, dataH http.Handler = sched.Handler(), registry.NewServer().Handler()
	if tr != nil {
		schedH = &tracedHandler{inner: schedH, tr: tr, classify: classifyScheduler, after: countEmptyLease}
		dataH = &tracedHandler{inner: dataH, tr: tr, classify: always("remoteexec.data"), bytesName: "remoteexec.data_bytes"}
	}
	mux := http.NewServeMux()
	mux.Handle(remoteexec.APIPrefix+"/", schedH)
	mux.Handle("/", dataH)
	front, err := startServer(ctx, mux)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	f := &farm{front: front, cancel: cancel}
	for i := 0; i < workers; i++ {
		w := remoteexec.NewWorker(front.url, sys, sys.Toolchains)
		w.Slots = 1
		w.Name = fmt.Sprintf("bench-%d", i)
		f.wg.Add(1)
		//comtainer:allow gonaked -- the workers belong to the farm value: close() cancels them and waits on wg
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx) // returns ctx.Err() when the farm closes
		}()
	}
	for len(sched.Status().Workers) < workers {
		if err := ctxutil.Sleep(ctx, time.Millisecond); err != nil {
			f.close(ctx)
			return nil, fmt.Errorf("waiting for farm workers: %w", err)
		}
	}
	return f, nil
}

func (f *farm) close(ctx context.Context) {
	f.cancel()
	f.wg.Wait()
	f.front.close(ctx)
}
