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

// reportAttempts bounds result-report retries. The report is the
// acknowledgement handshake: a worker keeps resubmitting until the
// scheduler confirms, so an acknowledged result is never lost, and an
// unacknowledged one is re-executed (same content-addressed payload)
// after heartbeat expiry.
const reportAttempts = 5

// Worker executes farm tasks: it registers with the scheduler,
// heartbeats, leases ready actions, runs them on a materialized
// snapshot of the executor's file system, and publishes the results
// as payload blobs — writing the action-cache entries through to the
// shared remote cache along the way.
type Worker struct {
	// Scheduler is the farm base URL (the host also serving /farm/v1).
	Scheduler string
	// Client moves blobs to/from the registry; its HTTP client also
	// carries the scheduler traffic, so a fault-injecting transport
	// wraps every wire interaction at once.
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
	// Cache, when set, receives every action-cache entry this worker
	// produces (usually an actioncache.RemoteCache), so farm
	// executions warm the fleet-wide cache. Entries already present
	// there short-circuit execution entirely.
	Cache actioncache.Cache
	// ExecDelay simulates per-action compute time — the knob the
	// scaling benchmark turns to make wall-clock speedup observable.
	ExecDelay time.Duration

	treeMu      sync.Mutex
	trees       map[digest.Digest]*keptTree // session snapshots, fetched once
	idleTrees   cachekit.LRU[digest.Digest] // the kept trees no task holds, by recency
	treeFetches cachekit.Flight[digest.Digest, *fsim.FS]

	overlayMu sync.Mutex
	overlays  map[digest.Digest]Payload // prefetched, consumed on use
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

func (w *Worker) httpClient() *http.Client {
	if w.Client != nil && w.Client.HTTP != nil {
		return w.Client.HTTP
	}
	return http.DefaultClient
}

// Run registers and serves until ctx is cancelled (returning
// ctx.Err()) or the scheduler expires the worker (returning the
// expiry error). Heartbeat and slot loops are joined before return.
func (w *Worker) Run(ctx context.Context) error {
	var reg RegisterResponse
	req := RegisterRequest{Name: w.Name, Slots: w.Slots, Platform: w.Platform}
	if err := doJSON(ctx, w.httpClient(), http.MethodPost, w.Scheduler+APIPrefix+"/workers", req, &reg); err != nil {
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
		err := doJSON(ctx, w.httpClient(), http.MethodPost, url, struct{}{}, nil)
		if isStatus(err, http.StatusGone) {
			return fmt.Errorf("remoteexec: worker %s expired by scheduler: %w", id, err)
		}
	}
}

// slotLoop is one execution slot: lease a small batch, execute each
// task while prefetching the next one's inputs, report, repeat. The
// batch (?max=2: the running task plus one lookahead) pipelines the
// network — snapshot and overlay of task N+1 download while task N
// computes — without hoarding: the scheduler only grants lookahead no
// idle peer could take.
func (w *Worker) slotLoop(ctx context.Context, id string) error {
	leaseURL := fmt.Sprintf("%s%s/lease?worker=%s&wait=%d&max=2", w.Scheduler, APIPrefix, id, leaseWaitMillis)
	var pending []*LeasedTask
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(pending) == 0 {
			var lr LeaseResponse
			if err := doJSON(ctx, w.httpClient(), http.MethodPost, leaseURL, nil, &lr); err != nil {
				if isStatus(err, http.StatusGone) {
					return fmt.Errorf("remoteexec: worker %s expired by scheduler: %w", id, err)
				}
				if err := ctxutil.Sleep(ctx, 50*time.Millisecond); err != nil {
					return err
				}
				continue
			}
			pending = lr.Tasks
			continue
		}
		t := pending[0]
		pending = pending[1:]
		var pf sync.WaitGroup
		if len(pending) > 0 {
			next := pending[0]
			pf.Add(1)
			go func() {
				defer pf.Done()
				w.prefetchTask(ctx, next)
			}()
		}
		rep := ResultReport{WorkerID: id}
		payload, err := w.executeTask(ctx, t)
		pf.Wait()
		if err != nil {
			if ctx.Err() != nil {
				// Killed mid-action: report nothing; heartbeat expiry
				// requeues the task on a surviving worker.
				return ctx.Err()
			}
			rep.Error = err.Error()
		} else {
			rep.Payload = payload
		}
		if err := w.report(ctx, t.ID, rep); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// prefetchTask warms the inputs of an upcoming task — the memoized
// base snapshot and the overlay payload — so execution starts without
// waiting on the wire. Best-effort: a failed prefetch just means
// executeTask fetches for real.
func (w *Worker) prefetchTask(ctx context.Context, t *LeasedTask) {
	repo := t.Spec.Repo
	if repo == "" {
		repo = DefaultRepo
	}
	if _, err := w.baseFS(ctx, repo, t.Spec.BaseTree); err == nil {
		w.unpinTree(t.Spec.BaseTree) // kept for executeTask
	}
	if t.Spec.Overlay == "" {
		return
	}
	p, err := FetchPayload(ctx, w.Client, repo, t.Spec.Overlay)
	if err != nil {
		return
	}
	w.overlayMu.Lock()
	if w.overlays == nil {
		w.overlays = make(map[digest.Digest]Payload)
	}
	w.overlays[t.Spec.Overlay] = p
	w.overlayMu.Unlock()
}

// fetchOverlay returns (and consumes) a prefetched overlay payload,
// falling back to the registry. Single use keeps the stash bounded by
// the lookahead depth.
func (w *Worker) fetchOverlay(ctx context.Context, repo string, d digest.Digest) (Payload, error) {
	w.overlayMu.Lock()
	p, ok := w.overlays[d]
	if ok {
		delete(w.overlays, d)
	}
	w.overlayMu.Unlock()
	if ok {
		return p, nil
	}
	return FetchPayload(ctx, w.Client, repo, d)
}

// report resubmits until the scheduler acknowledges (idempotent on
// its side) or the attempt budget runs out.
func (w *Worker) report(ctx context.Context, taskID string, rep ResultReport) error {
	url := w.Scheduler + APIPrefix + "/tasks/" + taskID + "/result"
	var last error
	for attempt := 0; attempt < reportAttempts; attempt++ {
		if attempt > 0 {
			if err := ctxutil.Sleep(ctx, time.Duration(attempt)*50*time.Millisecond); err != nil {
				return err
			}
		}
		var st TaskStatus
		last = doJSON(ctx, w.httpClient(), http.MethodPost, url, rep, &st)
		if last == nil {
			return nil
		}
		if isStatus(last, http.StatusNotFound) {
			return last
		}
	}
	return last
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
func (w *Worker) baseFS(ctx context.Context, repo string, td digest.Digest) (*fsim.FS, error) {
	fsys, _, err := w.treeFetches.DoContext(ctx, td, func() (*fsim.FS, error) {
		fsys := w.pinTree(td, nil)
		if fsys == nil {
			fetched, err := FetchTree(ctx, w.Client, repo, td)
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

// executeTask runs one leased action and publishes its payload blob,
// returning the blob digest the result report carries.
func (w *Worker) executeTask(ctx context.Context, t *LeasedTask) (digest.Digest, error) {
	repo := t.Spec.Repo
	if repo == "" {
		repo = DefaultRepo
	}
	base, err := w.baseFS(ctx, repo, t.Spec.BaseTree)
	if err != nil {
		return "", err
	}
	defer w.unpinTree(t.Spec.BaseTree)
	// A structural share: the task's writes land in its own map, the
	// session's files are never copied.
	fsys := base.Clone()
	if t.Spec.Overlay != "" {
		ov, err := w.fetchOverlay(ctx, repo, t.Spec.Overlay)
		if err != nil {
			return "", err
		}
		for _, out := range ov.Outputs {
			fsys.WriteFile(out.Path, out.Data, fs.FileMode(out.Mode))
		}
	}
	if w.ExecDelay > 0 {
		if err := ctxutil.Sleep(ctx, w.ExecDelay); err != nil {
			return "", err
		}
	}

	capture := &captureCache{next: w.Cache}
	runner := toolchain.NewRunner(fsys, w.Registry)
	runner.Memo = actioncache.NewMemoizer(capture)
	if err := fsys.MkdirAll(t.Spec.Cwd, 0o755); err != nil {
		return "", fmt.Errorf("remoteexec: creating cwd %s: %w", t.Spec.Cwd, err)
	}
	runner.Cwd = fsim.Clean(t.Spec.Cwd)
	if err := runner.Run(t.Spec.Argv); err != nil {
		return "", fmt.Errorf("remoteexec: executing task %s: %w", t.ID, err)
	}
	p, err := capture.payload()
	if err != nil {
		return "", fmt.Errorf("remoteexec: task %s: %w", t.ID, err)
	}
	return PushPayload(ctx, w.Client, repo, p)
}

// captureCache sits under the worker's per-task memoizer: it records
// the manifest and result documents flowing through (in either
// direction — a shared-cache hit Gets them, a fresh execution Puts
// them) and forwards writes to the shared remote tier so the farm
// warms the fleet cache. One instance serves exactly one action.
type captureCache struct {
	next actioncache.Cache

	mu       sync.Mutex
	manifest []byte
	result   []byte
}

func (c *captureCache) Get(key digest.Digest) ([]byte, bool, error) {
	if c.next == nil {
		return nil, false, nil
	}
	val, ok, err := c.next.Get(key)
	if ok && err == nil {
		c.note(val)
	}
	return val, ok, err
}

func (c *captureCache) Put(key digest.Digest, val []byte) error {
	c.note(val)
	if c.next == nil {
		return nil
	}
	return c.next.Put(key, val)
}

func (c *captureCache) Stats() actioncache.Stats {
	if c.next == nil {
		return actioncache.Stats{}
	}
	return c.next.Stats()
}

// note files val under manifest or result by its magic prefix.
func (c *captureCache) note(val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := actioncache.DecodeManifest(val); err == nil {
		c.manifest = append([]byte(nil), val...)
		return
	}
	if _, err := actioncache.DecodeResult(val); err == nil {
		c.result = append([]byte(nil), val...)
	}
}

// payload assembles the task's wire result from the captured cache
// documents.
func (c *captureCache) payload() (Payload, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manifest == nil || c.result == nil {
		return Payload{}, fmt.Errorf("command produced no action-cache documents (not cacheable?)")
	}
	man, err := actioncache.DecodeManifest(c.manifest)
	if err != nil {
		return Payload{}, err
	}
	res, err := actioncache.DecodeResult(c.result)
	if err != nil {
		return Payload{}, err
	}
	return Payload{Inputs: man.Inputs, Outputs: res.Outputs, Cacheable: true}, nil
}
