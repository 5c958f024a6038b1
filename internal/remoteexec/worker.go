package remoteexec

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"sync"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/cachekit"
	"comtainer/internal/core/ctxutil"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// leaseWaitMillis is how long a worker's lease poll parks on the
// scheduler before coming back empty.
const leaseWaitMillis = 1000

// maxIdleTreeBytes bounds the session snapshots a worker keeps for
// sessions it is running no task of at the moment, by fsim.FS.TotalSize.
// Snapshots a running task holds are never dropped and do not count.
const maxIdleTreeBytes = 1 << 30

// Worker executes farm tasks: it registers with the scheduler,
// heartbeats, leases ready actions, runs them on a materialized
// snapshot of the executor's file system, and reports each runner's
// record of its action. It stores nothing: the executor's memoizer is
// the one writer of the record's cache entries.
type Worker struct {
	// Scheduler is the farm base URL (the host also serving /farm/v1).
	Scheduler string
	// Client fetches session trees from the registry; its HTTP client
	// also carries the scheduler traffic, so a fault-injecting
	// transport wraps every wire interaction at once.
	Client *distrib.Client
	// Name labels the worker in status output.
	Name string
	// Slots is how many tasks run concurrently (min 1).
	Slots int
	// Platform is what the worker advertises at registration.
	Platform Platform
	// Registry is the toolchain registry commands execute under; its
	// fingerprint must match Platform.Toolchains.
	Registry *toolchain.Registry
	// ExecDelay simulates per-action compute time — the knob the
	// scaling benchmark turns to make wall-clock speedup observable.
	ExecDelay time.Duration

	treeMu      sync.Mutex
	trees       map[digest.Digest]*keptTree // session snapshots, fetched once
	idleTrees   cachekit.LRU[digest.Digest] // the kept trees no task holds, by recency
	treeFetches cachekit.Flight[digest.Digest, *fsim.FS]
}

// NewWorker returns a worker for the farm at scheduler, executing
// under reg on behalf of sys. The same URL serves blob traffic.
func NewWorker(scheduler string, sys *sysprofile.System, reg *toolchain.Registry) *Worker {
	return &Worker{
		Scheduler: scheduler,
		Client:    distrib.NewClient(scheduler),
		Name:      sys.Name,
		Slots:     1,
		Platform:  Platform{ISA: sys.ISA, System: sys.Name, Toolchains: reg.Fingerprint()},
		Registry:  reg,
	}
}

// Run registers and serves until ctx is cancelled (returning
// ctx.Err()) or the scheduler expires the worker (returning the
// expiry error). Heartbeat and slot loops are joined before return.
func (w *Worker) Run(ctx context.Context) error {
	var reg RegisterResponse
	req := RegisterRequest{Name: w.Name, Slots: w.Slots, Platform: w.Platform}
	if err := doJSON(ctx, w.Client, http.MethodPost, w.Scheduler+APIPrefix+"/workers", req, &reg); err != nil {
		return fmt.Errorf("remoteexec: registering worker: %w", err)
	}
	interval := time.Duration(reg.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	slots := w.Slots
	if slots <= 0 {
		slots = 1
	}
	errc := make(chan error, slots+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.heartbeatLoop(ctx, reg.WorkerID, interval); err != nil {
			errc <- err
			cancel()
		}
	}()
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.slotLoop(ctx, reg.WorkerID); err != nil {
				errc <- err
				cancel()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return ctx.Err()
}

// heartbeatLoop beats at the registered interval. Transient delivery
// failures are retried on the next beat (the expiry window leaves
// room for two losses); a 410 means the scheduler already expired us
// and is fatal — the operator restarts the worker.
func (w *Worker) heartbeatLoop(ctx context.Context, id string, interval time.Duration) error {
	url := w.Scheduler + APIPrefix + "/workers/" + id + "/heartbeat"
	for {
		if err := ctxutil.Sleep(ctx, interval); err != nil {
			return err
		}
		err := doJSON(ctx, w.Client, http.MethodPost, url, struct{}{}, nil)
		if distrib.StatusCode(err) == http.StatusGone {
			return fmt.Errorf("remoteexec: worker %s expired by scheduler: %w", id, err)
		}
	}
}

// slotLoop is one execution slot: lease a task, execute it, report,
// repeat.
func (w *Worker) slotLoop(ctx context.Context, id string) error {
	leaseURL := fmt.Sprintf("%s%s/lease?worker=%s&wait=%d", w.Scheduler, APIPrefix, id, leaseWaitMillis)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := doJSON(ctx, w.Client, http.MethodPost, leaseURL, nil, &lr); err != nil {
			if distrib.StatusCode(err) == http.StatusGone {
				return fmt.Errorf("remoteexec: worker %s expired by scheduler: %w", id, err)
			}
			if err := ctxutil.Sleep(ctx, 50*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		if t := lr.Task; t != nil {
			rep := ResultReport{WorkerID: id}
			record, err := w.executeTask(ctx, t)
			if err != nil {
				if ctx.Err() != nil {
					// Killed mid-action: report nothing; heartbeat expiry
					// requeues the task on a surviving worker.
					return ctx.Err()
				}
				rep.Error = err.Error()
			} else {
				rep.Record = record
			}
			if err := w.report(ctx, t.ID, rep); err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
}

// report is the acknowledgement handshake: it resubmits through the
// client's retry budget until the scheduler confirms (idempotent on its
// side), so an acknowledged result is never lost; an unacknowledged one
// is re-executed (same content-addressed record) after heartbeat
// expiry. A 404 — the scheduler no longer knows the task — is final.
func (w *Worker) report(ctx context.Context, taskID string, rep ResultReport) error {
	url := w.Scheduler + APIPrefix + "/tasks/" + taskID + "/result"
	return w.Client.Retry(ctx, func(ctx context.Context) error {
		return doJSON(ctx, w.Client, http.MethodPost, url, rep, nil)
	})
}

// keptTree is one memoized session snapshot.
type keptTree struct {
	fs    *fsim.FS
	size  int64 // fs.TotalSize() when kept
	holds int   // running tasks using it
}

// pinTree counts the caller as a task holding the memoized snapshot td
// until it calls unpinTree, and returns the snapshot — nil if there is
// none, unless fetched is given to be kept as td.
func (w *Worker) pinTree(td digest.Digest, fetched *fsim.FS) *fsim.FS {
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	k := w.trees[td]
	if k == nil {
		if fetched == nil {
			return nil
		}
		k = &keptTree{fs: fetched, size: fetched.TotalSize()}
		if w.trees == nil {
			w.trees = make(map[digest.Digest]*keptTree)
		}
		w.trees[td] = k
	}
	k.holds++
	w.idleTrees.Remove(td)
	return k.fs
}

// unpinTree ends one task's hold on snapshot td. A snapshot no task
// holds is filed as the most recently used idle one, and the least
// recently used idle ones beyond maxIdleTreeBytes are dropped.
func (w *Worker) unpinTree(td digest.Digest) {
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	k := w.trees[td]
	if k.holds--; k.holds > 0 {
		return
	}
	w.idleTrees.Add(td, k.size)
	victims, _ := w.idleTrees.Evict(maxIdleTreeBytes)
	for _, v := range victims {
		delete(w.trees, v)
	}
}

// baseFS materializes (and memoizes) the session snapshot td and pins
// it: the caller calls unpinTree(td) when its task is over. The result
// is shared: callers Clone it before mutating. No lock is held while
// fetching: one tree downloads once however many slots ask for it, and
// different trees download concurrently.
func (w *Worker) baseFS(ctx context.Context, td digest.Digest) (*fsim.FS, error) {
	fsys, _, err := w.treeFetches.DoContext(ctx, td, func() (*fsim.FS, error) {
		fsys := w.pinTree(td, nil)
		if fsys == nil {
			fetched, err := FetchTree(ctx, w.Client, td)
			if err != nil {
				return nil, err
			}
			fsys = w.pinTree(td, fetched)
		}
		w.unpinTree(td) // kept; every caller of the flight takes its own pin
		return fsys, nil
	})
	if err != nil {
		return nil, err
	}
	// Keeps fsys again should eviction have dropped td since the flight.
	return w.pinTree(td, fsys), nil
}

// executeTask runs one leased action and returns the runner's record
// of it, what the result report carries.
func (w *Worker) executeTask(ctx context.Context, t *LeasedTask) (*actioncache.Result, error) {
	base, err := w.baseFS(ctx, t.Spec.BaseTree)
	if err != nil {
		return nil, err
	}
	defer w.unpinTree(t.Spec.BaseTree)
	// A structural share: the task's writes land in its own map, the
	// session's files are never copied.
	fsys := base.Clone()
	for _, out := range t.Spec.Overlay {
		fsys.WriteFile(out.Path, out.Data, fs.FileMode(out.Mode))
	}
	if w.ExecDelay > 0 {
		if err := ctxutil.Sleep(ctx, w.ExecDelay); err != nil {
			return nil, err
		}
	}

	// A memoizer without a tier records the action and stores nothing.
	runner := toolchain.NewRunner(fsys, w.Registry)
	runner.Memo = actioncache.NewMemoizer(nil)
	if err := fsys.MkdirAll(t.Spec.Cwd, 0o755); err != nil {
		return nil, fmt.Errorf("remoteexec: creating cwd %s: %w", t.Spec.Cwd, err)
	}
	runner.Cwd = fsim.Clean(t.Spec.Cwd)
	if err := runner.Run(t.Spec.Argv); err != nil {
		return nil, fmt.Errorf("remoteexec: executing task %s: %w", t.ID, err)
	}
	if runner.LastResult == nil {
		return nil, fmt.Errorf("remoteexec: task %s: command went through no action cache (not cacheable?)", t.ID)
	}
	return runner.LastResult, nil
}
