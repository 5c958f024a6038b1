package fleet_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/oci"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/workloads"
)

// buildApp builds one workload's extended image on a fresh user side.
func buildApp(t *testing.T, sys *sysprofile.System, name string) (*core.UserSide, core.BuildResult) {
	t.Helper()
	user, err := core.NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workloads.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := user.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	return user, res
}

// rebuild pulls and rebuilds the app on a fresh system side with the
// given executor (nil = all-local) and returns the +coMre digest.
func rebuild(t *testing.T, sys *sysprofile.System, user *core.UserSide, res core.BuildResult, farm *remoteexec.Executor) oci.Descriptor {
	t.Helper()
	system, err := core.NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	system.RebuildWorkers = 4
	system.RemoteExec = farm
	if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	desc, _, err := system.Rebuild(res.DistTag, adapter.DefaultAdapted(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// TestFleetFarmRebuildThroughProxy points the whole build farm — the
// worker's blob plane and the executor — at the fleet proxy: /farm/v1
// forwards to the scheduler while the session's tree blob lands on
// sharded, replicated registries. The remote rebuild must match the
// local one, every blob must sit on the shard the ring assigns it, on
// both of that shard's replicas, and no shard may hold a tag: the farm
// stores no action-cache entry in the registry.
func TestFleetFarmRebuildThroughProxy(t *testing.T) {
	sys := sysprofile.X86Cluster()
	user, res := buildApp(t, sys, "hpccg")
	local := rebuild(t, sys, user, res, nil)

	sched := remoteexec.NewScheduler()
	schedTS := httptest.NewServer(sched.Handler())
	t.Cleanup(schedTS.Close)
	p, ts, shards := startFleet(t, 2, 2)
	p.FarmBackend = schedTS.URL
	ts.Config.Handler = p.Handler() // rebuild routes now that FarmBackend is set

	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < 2; i++ {
		w := remoteexec.NewWorker(ts.URL, sys, sys.Toolchains)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // lifecycle errors surface as farm-level fallback
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sched.Status().Workers) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not register through the proxy in time")
		}
		time.Sleep(5 * time.Millisecond)
	}

	exec := remoteexec.NewExecutor(ts.URL, sys, sys.Toolchains)
	remote := rebuild(t, sys, user, res, exec)
	if remote.Digest != local.Digest {
		t.Fatalf("farm-through-proxy rebuild digest %s differs from local %s", remote.Digest, local.Digest)
	}
	st := exec.Stats()
	if st.Remote == 0 || st.Errors != 0 {
		t.Fatalf("executor stats %s: want remote actions through the proxy", st)
	}

	blobs := 0
	for i, sh := range shards {
		for j, r := range sh.replicas {
			if tags := r.srv.Tags(); len(tags) != 0 {
				t.Errorf("shard %d replica %d holds tags %v, want none", i, j, tags)
			}
			for _, d := range r.srv.Blobs().Digests() {
				blobs++
				if owner := p.Ring().Owner(d); owner != sh.group.Name() {
					t.Errorf("blob %s on shard %d, which the ring does not assign it (owner %s)", d.Short(), i, owner)
				}
				for k, peer := range sh.replicas {
					if !peer.srv.Blobs().Has(d) {
						t.Errorf("blob %s on shard %d replica %d is missing from replica %d", d.Short(), i, j, k)
					}
				}
			}
		}
	}
	if blobs == 0 {
		t.Fatal("no shard holds a blob; the session's tree did not go through the proxy")
	}
}
