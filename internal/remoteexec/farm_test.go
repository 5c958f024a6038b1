// End-to-end and chaos tests of the build farm: full rebuilds routed
// through real workers over HTTP, with fault injection on the worker's
// wire and workers killed mid-action. External test package so the
// farm can be driven through core.SystemSide exactly as the CLI does.
package remoteexec_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/faultinject"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/workloads"
)

// testFarm is a combined scheduler+registry endpoint plus its worker
// fleet, torn down (workers joined) via t.Cleanup.
type testFarm struct {
	t     *testing.T
	sched *remoteexec.Scheduler
	srv   *registry.Server
	ts    *httptest.Server
	wg    sync.WaitGroup
}

func startFarm(t *testing.T, sched *remoteexec.Scheduler) *testFarm {
	t.Helper()
	f := &testFarm{t: t, sched: sched, srv: registry.NewServer()}
	mux := http.NewServeMux()
	mux.Handle(remoteexec.APIPrefix+"/", sched.Handler())
	mux.Handle("/", f.srv.Handler())
	f.ts = httptest.NewServer(mux)
	t.Cleanup(func() {
		f.wg.Wait()
		f.ts.Close()
	})
	return f
}

// startWorker launches a worker and waits until the scheduler has
// registered it. The returned cancel kills the worker; all workers are
// joined at cleanup.
func (f *testFarm) startWorker(sys *sysprofile.System, mutate func(*remoteexec.Worker)) context.CancelFunc {
	f.t.Helper()
	w := remoteexec.NewWorker(f.ts.URL, sys, sys.Toolchains)
	if mutate != nil {
		mutate(w)
	}
	before := len(f.sched.Status().Workers)
	ctx, cancel := context.WithCancel(context.Background())
	f.t.Cleanup(cancel)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = w.Run(ctx) // lifecycle errors surface as farm-level fallback
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(f.sched.Status().Workers) <= before {
		if time.Now().After(deadline) {
			f.t.Fatalf("worker %s did not register in time", w.Name)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cancel
}

// requireNoTags fails unless the farm registry holds no tag: a worker
// stores no action-cache entry, and a session's one blob is untagged.
func (f *testFarm) requireNoTags() {
	f.t.Helper()
	if tags := f.srv.Tags(); len(tags) != 0 {
		f.t.Errorf("farm registry holds %d tags, want none: %v", len(tags), tags)
	}
}

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

// rebuild pulls and rebuilds the app on a fresh system side, wiring in
// the given executor (nil = all-local), and returns the +coMre digest.
func rebuild(t *testing.T, sys *sysprofile.System, user *core.UserSide, res core.BuildResult, farm *remoteexec.Executor) oci.Descriptor {
	t.Helper()
	return rebuildInto(t, sys, user, res, farm, nil)
}

// rebuildInto is rebuild with the system side's action cache set to
// memo (nil = none).
func rebuildInto(t *testing.T, sys *sysprofile.System, user *core.UserSide, res core.BuildResult, farm *remoteexec.Executor, memo *actioncache.Memoizer) oci.Descriptor {
	t.Helper()
	system, err := core.NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	system.RebuildWorkers = 4
	system.RemoteExec = farm
	system.ActionMemo = memo
	if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	desc, _, err := system.Rebuild(res.DistTag, adapter.DefaultAdapted(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// diskMemo is a memoizer over a fresh on-disk action cache, and the
// directory it lives in.
func diskMemo(t *testing.T) (*actioncache.Memoizer, string) {
	t.Helper()
	dir := t.TempDir()
	disk, err := actioncache.NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return actioncache.NewMemoizer(disk), dir
}

// cacheFiles reads every record of the on-disk action cache in dir —
// "COMT-AC2 <key> <length> <digest>\n" and the document, one after the
// other in the files under segments/ — as documents by key. A key
// recorded twice fails the test: each document is written once.
func cacheFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	segments, err := filepath.Glob(filepath.Join(dir, "segments", "*"))
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, p := range segments {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for rest := string(raw); rest != ""; {
			var key, sum string
			var n int
			header, body, _ := strings.Cut(rest, "\n")
			if _, err := fmt.Sscanf(header, "COMT-AC2 %s %d %s", &key, &n, &sum); err != nil || n > len(body) {
				t.Fatalf("%s: record header %q: %v", p, header, err)
			}
			if _, dup := docs[key]; dup {
				t.Fatalf("%s: key %s recorded twice", p, key)
			}
			docs[key], rest = body[:n], body[n:]
		}
	}
	return docs
}

// requireSameCache fails unless the action cache in farmDir holds
// exactly the documents a local rebuild left in localDir, two for each
// of actions. The executor re-observes what a worker reports, so the
// cache it fills is the one a local rebuild fills: same keys, same
// documents.
func requireSameCache(t *testing.T, localDir, farmDir string, actions int64) {
	t.Helper()
	want, got := cacheFiles(t, localDir), cacheFiles(t, farmDir)
	if len(want) != int(2*actions) {
		t.Fatalf("local rebuild left %d cache entries for %d actions, want 2 per action", len(want), actions)
	}
	if len(got) != len(want) {
		t.Errorf("farm rebuild left %d cache entries, local rebuild %d", len(got), len(want))
	}
	for key, doc := range want {
		if got[key] != doc {
			t.Errorf("cache entry %s differs between the local and the farm rebuild (%d vs %d bytes)", key, len(doc), len(got[key]))
		}
	}
}

// TestFarmRebuildEndToEnd routes an uncached rebuild entirely through
// farm workers and checks the result is byte-identical to a local
// rebuild — the image and the action cache it leaves behind — with
// every cacheable action executed remotely, its documents written once
// by the executor and none by the farm.
func TestFarmRebuildEndToEnd(t *testing.T) {
	sys := sysprofile.X86Cluster()
	user, res := buildApp(t, sys, "hpccg")
	localMemo, localDir := diskMemo(t)
	local := rebuildInto(t, sys, user, res, nil, localMemo)

	f := startFarm(t, remoteexec.NewScheduler())
	f.startWorker(sys, nil)
	f.startWorker(sys, nil)

	exec := remoteexec.NewExecutor(f.ts.URL, sys, sys.Toolchains)
	remoteMemo, remoteDir := diskMemo(t)
	remote := rebuildInto(t, sys, user, res, exec, remoteMemo)
	if remote.Digest != local.Digest {
		t.Fatalf("remote rebuild digest %s differs from local %s", remote.Digest, local.Digest)
	}
	st := exec.Stats()
	if st.Remote == 0 || st.Local != 0 || st.Errors != 0 {
		t.Fatalf("executor stats %s: want every action remote", st)
	}
	requireSameCache(t, localDir, remoteDir, st.Remote)
	f.requireNoTags()

	// A second identical rebuild over the same warm client cache replays
	// every action: same digest, and the farm is offered nothing.
	exec2 := remoteexec.NewExecutor(f.ts.URL, sys, sys.Toolchains)
	again := rebuildInto(t, sys, user, res, exec2, remoteMemo)
	if again.Digest != local.Digest {
		t.Fatalf("repeat remote rebuild digest %s differs from local %s", again.Digest, local.Digest)
	}
	if st := exec2.Stats(); st.Remote != 0 || st.Local != 0 {
		t.Fatalf("repeat rebuild over a warm cache: executor stats %s, want nothing offered", st)
	}
	f.requireNoTags()
}

// TestFarmZeroWorkersFallsBackLocal checks the executor degrades to
// local execution when the farm has no workers at all — the rebuild
// still completes and produces the same image.
func TestFarmZeroWorkersFallsBackLocal(t *testing.T) {
	sys := sysprofile.X86Cluster()
	user, res := buildApp(t, sys, "hpccg")
	local := rebuild(t, sys, user, res, nil)

	f := startFarm(t, remoteexec.NewScheduler())
	exec := remoteexec.NewExecutor(f.ts.URL, sys, sys.Toolchains)
	remote := rebuild(t, sys, user, res, exec)
	if remote.Digest != local.Digest {
		t.Fatalf("fallback rebuild digest %s differs from local %s", remote.Digest, local.Digest)
	}
	st := exec.Stats()
	if st.Remote != 0 || st.Local == 0 {
		t.Fatalf("executor stats %s: want every action local", st)
	}
}

// TestChaosWorkerKilledMidAction kills a worker while it holds leased
// actions. The scheduler must notice the missed heartbeats, requeue
// the worker's in-flight tasks onto the survivor, and the DAG must
// complete with the executor's action cache holding each result
// exactly once.
func TestChaosWorkerKilledMidAction(t *testing.T) {
	sys := sysprofile.X86Cluster()
	user, res := buildApp(t, sys, "hpccg")
	localMemo, localDir := diskMemo(t)
	local := rebuildInto(t, sys, user, res, nil, localMemo)

	sched := remoteexec.NewScheduler()
	sched.HeartbeatTimeout = 300 * time.Millisecond
	f := startFarm(t, sched)
	slow := func(w *remoteexec.Worker) {
		w.Slots = 2
		w.ExecDelay = 150 * time.Millisecond
	}
	killVictim := f.startWorker(sys, slow)
	f.startWorker(sys, slow)

	// Kill the victim as soon as it holds a task: its lease dies with
	// it, unreported, and must come back via heartbeat expiry.
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if st := f.sched.Status(); st.Running > 0 {
				killVictim()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	exec := remoteexec.NewExecutor(f.ts.URL, sys, sys.Toolchains)
	remoteMemo, remoteDir := diskMemo(t)
	remote := rebuildInto(t, sys, user, res, exec, remoteMemo)
	<-done
	if remote.Digest != local.Digest {
		t.Fatalf("post-chaos rebuild digest %s differs from local %s", remote.Digest, local.Digest)
	}
	st := exec.Stats()
	if st.Remote == 0 {
		t.Fatalf("executor stats %s: no action survived on the farm", st)
	}
	farm := f.sched.Status()
	if farm.Queued != 0 || farm.Running != 0 {
		t.Fatalf("farm left non-terminal tasks behind: %+v", farm)
	}
	// Exactly-once: a requeued action re-executed on the survivor still
	// reaches the executor as one record; no duplicates, no losses.
	requireSameCache(t, localDir, remoteDir, st.Remote+st.Local)
	f.requireNoTags()
}

// lossyUploads faults result reports and all blob traffic (payload
// uploads included) while letting registration, heartbeats and leases
// through clean, so the chaos targets the result path specifically.
type lossyUploads struct {
	faulty, clean http.RoundTripper
}

func (l lossyUploads) RoundTrip(req *http.Request) (*http.Response, error) {
	p := req.URL.Path
	if strings.Contains(p, "/result") || strings.Contains(p, "/v2/") {
		return l.faulty.RoundTrip(req)
	}
	return l.clean.RoundTrip(req)
}

// TestChaosLossyResultUploads runs a worker whose result reports and
// blob transfers (payload uploads, snapshot fetches) fail with
// injected drops, 503s and truncations, alongside one healthy worker.
// Worker-side report retries and scheduler-side requeues must absorb
// the faults: the DAG completes and matches the local rebuild, image
// and action cache.
func TestChaosLossyResultUploads(t *testing.T) {
	sys := sysprofile.X86Cluster()
	user, res := buildApp(t, sys, "hpccg")
	localMemo, localDir := diskMemo(t)
	local := rebuildInto(t, sys, user, res, nil, localMemo)

	sched := remoteexec.NewScheduler()
	sched.HeartbeatTimeout = 500 * time.Millisecond
	// Generous attempt budget: the lossy worker may burn several.
	sched.MaxAttempts = 10
	f := startFarm(t, sched)
	plan := faultinject.NewPlan(42).
		Rate(faultinject.Drop, 0.10).
		Rate(faultinject.HTTP500, 0.05).
		Rate(faultinject.Truncate, 0.05)
	f.startWorker(sys, func(w *remoteexec.Worker) {
		w.Name = "lossy"
		w.Client.HTTP = &http.Client{Transport: lossyUploads{
			faulty: faultinject.NewTransport(http.DefaultTransport, plan),
			clean:  http.DefaultTransport,
		}}
	})
	f.startWorker(sys, func(w *remoteexec.Worker) { w.Name = "clean" })

	exec := remoteexec.NewExecutor(f.ts.URL, sys, sys.Toolchains)
	remoteMemo, remoteDir := diskMemo(t)
	remote := rebuildInto(t, sys, user, res, exec, remoteMemo)
	if remote.Digest != local.Digest {
		t.Fatalf("post-chaos rebuild digest %s differs from local %s", remote.Digest, local.Digest)
	}
	st := exec.Stats()
	if st.Remote == 0 {
		t.Fatalf("executor stats %s: no action survived on the farm", st)
	}
	farm := f.sched.Status()
	if farm.Queued != 0 || farm.Running != 0 {
		t.Fatalf("farm left non-terminal tasks behind: %+v", farm)
	}
	requireSameCache(t, localDir, remoteDir, st.Remote+st.Local)
	f.requireNoTags()
}
