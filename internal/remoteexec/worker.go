package remoteexec

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strings"
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

// maxIdleTreeBytes bounds the trees a worker keeps, by
// fsim.FS.TotalSize: the least recently used beyond it are dropped. A
// chain's tree shares its parent chain's files, so this counts them
// twice. A running task keeps its own tree alive by holding it, so the
// worker's trees weigh at most this plus the dropped ones tasks hold.
const maxIdleTreeBytes = 1 << 30

// reportRoundWait is how long a worker waits between rounds of a
// result report the scheduler has not acknowledged.
const reportRoundWait = 200 * time.Millisecond

// Worker executes farm tasks: it registers with the scheduler, keeps a
// lease poll open, runs each task granted on a materialized snapshot of
// the executor's file system, and reports each runner's record of its
// action. The open poll is its one sign of life. It stores nothing: the
// executor's memoizer is the one writer of the record's cache entries.
type Worker struct {
	// Scheduler is the farm base URL (the host also serving /farm/v1).
	Scheduler string
	// Client fetches session layers from the registry; its HTTP client
	// also carries the scheduler traffic, so a fault-injecting
	// transport wraps every wire interaction at once. NewWorker gives
	// it a connection pool of its own, which Run sizes to the open
	// lease poll plus one connection per slot.
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

	pool        *http.Transport // Client's, when NewWorker made it
	treeMu      sync.Mutex
	trees       map[string]*fsim.FS  // the kept trees, by chainKey
	treeLRU     cachekit.LRU[string] // the kept trees, by recency
	treeFetches cachekit.Flight[string, *fsim.FS]
}

// NewWorker returns a worker for the farm at scheduler, executing
// under reg on behalf of sys. The same URL serves blob traffic.
func NewWorker(scheduler string, sys *sysprofile.System, reg *toolchain.Registry) *Worker {
	pool := http.DefaultTransport.(*http.Transport).Clone()
	client := distrib.NewClient(scheduler)
	client.HTTP = &http.Client{Transport: pool}
	return &Worker{
		Scheduler: scheduler,
		Client:    client,
		Name:      sys.Name,
		Slots:     1,
		Platform:  Platform{ISA: sys.ISA, System: sys.Name, Toolchains: reg.Fingerprint()},
		Registry:  reg,
		pool:      pool,
	}
}

// Run registers and serves until ctx is cancelled (returning
// ctx.Err()) or the scheduler expires the worker (returning the
// expiry error). It always keeps one lease poll open: while every slot
// is busy the scheduler grants nothing and parks the poll until a
// report frees one, and the parked poll is what keeps the worker from
// expiring. Each task granted runs on its own goroutine, and Run joins
// them before it returns.
func (w *Worker) Run(ctx context.Context) error {
	var reg RegisterResponse
	req := RegisterRequest{Name: w.Name, Slots: w.Slots, Platform: w.Platform}
	if err := doJSON(ctx, w.Client, http.MethodPost, w.Scheduler+APIPrefix+"/workers", req, &reg); err != nil {
		return fmt.Errorf("remoteexec: registering worker: %w", err)
	}
	if w.pool != nil {
		w.pool.MaxIdleConnsPerHost = max(w.Slots, 1) + 1
		defer w.pool.CloseIdleConnections()
	}
	var tasks sync.WaitGroup
	defer tasks.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // before the Wait: a task cut short reports nothing

	leaseURL := fmt.Sprintf("%s%s/lease?worker=%s&wait=%d", w.Scheduler, APIPrefix, reg.WorkerID, leaseWaitMillis)
	for {
		var lr LeaseResponse
		err := doJSON(ctx, w.Client, http.MethodPost, leaseURL, nil, &lr)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case distrib.StatusCode(err) == http.StatusGone:
			return fmt.Errorf("remoteexec: worker %s expired by scheduler: %w", reg.WorkerID, err)
		case err != nil:
			if err := ctxutil.Sleep(ctx, 50*time.Millisecond); err != nil {
				return err
			}
		case lr.Task != nil:
			tasks.Add(1)
			go func() {
				defer tasks.Done()
				w.serve(ctx, reg.WorkerID, lr.Task)
			}()
		}
	}
}

// serve executes task t and reports how it went, unless the worker is
// stopping: a task cut short is left to the scheduler, which requeues
// it on a live worker once this one stops polling.
func (w *Worker) serve(ctx context.Context, id string, t *LeasedTask) {
	record, err := w.executeTask(ctx, t)
	if ctx.Err() == nil {
		_ = w.report(ctx, id, t.ID, record, err) // returns with nothing left to try
	}
}

// report is the acknowledgement handshake for worker id's result of
// task taskID, the record or the failure: it resubmits it, one round
// of the client's retry budget at a time and reportRoundWait apart,
// until the scheduler confirms it (idempotent on its side), answers
// 404 (it no longer knows the task) or ctx ends. So a result is never
// lost, and its task never stranded, while both sides live. A record
// the scheduler refuses for good (a 400, a 413) is sent once more as
// the task's error, for the scheduler to requeue or fail the task.
func (w *Worker) report(ctx context.Context, id, taskID string, record *actioncache.Result, failure error) error {
	rep := ResultReport{WorkerID: id, Record: record}
	if failure != nil {
		rep = ResultReport{WorkerID: id, Error: failure.Error()}
	}
	url := w.Scheduler + APIPrefix + "/tasks/" + taskID + "/result"
	for {
		err := w.Client.Retry(ctx, func(ctx context.Context) error {
			return doJSON(ctx, w.Client, http.MethodPost, url, rep, nil)
		})
		code := distrib.StatusCode(err)
		refused := code >= 400 && code < 500 && code != http.StatusRequestTimeout && code != http.StatusTooManyRequests
		switch {
		case err == nil || code == http.StatusNotFound || refused && rep.Record == nil:
			return err
		case refused:
			rep = ResultReport{WorkerID: id, Error: fmt.Sprintf("remoteexec: result report refused: %v", err)}
			continue
		}
		if err := ctxutil.Sleep(ctx, reportRoundWait); err != nil {
			return err
		}
	}
}

// chainKey names a chain of layers: their digests in order, as the
// OCI ChainID does without hashing them again.
func chainKey(chain []digest.Digest) string {
	var b strings.Builder
	for _, d := range chain {
		b.WriteString(string(d))
		b.WriteByte(' ')
	}
	return b.String()
}

// baseFS returns the tree of chain, its layers applied in order, built
// unless kept. A chain's tree is its parent chain's (all but its last
// layer) with the last layer applied, and a one-layer chain's is that
// layer's; each is kept, so a lower chain many sessions share is
// fetched once while it is kept. The last layer is fetched and decoded
// before the parent is looked at: a chain with a layer that fails keeps
// nothing. The result is shared: callers Clone it before mutating. No
// lock is held while fetching: one chain builds once however many slots
// ask for it, and different chains build concurrently.
func (w *Worker) baseFS(ctx context.Context, chain []digest.Digest) (*fsim.FS, error) {
	if len(chain) == 0 {
		return nil, errors.New("remoteexec: the task names no base layer")
	}
	if len(chain) > MaxBaseLayers {
		return nil, fmt.Errorf("remoteexec: the task's base has %d layers, more than %d", len(chain), MaxBaseLayers)
	}
	key := chainKey(chain)
	fsys, _, err := w.treeFetches.DoContext(ctx, key, func() (*fsim.FS, error) {
		w.treeMu.Lock()
		kept := w.trees[key]
		w.treeLRU.Touch(key)
		w.treeMu.Unlock()
		if kept != nil {
			return kept, nil
		}
		tree, err := FetchTree(ctx, w.Client, chain[len(chain)-1])
		if err != nil {
			return nil, err
		}
		if len(chain) > 1 {
			parent, err := w.baseFS(ctx, chain[:len(chain)-1])
			if err != nil {
				return nil, err
			}
			tree = fsim.Apply(parent, tree)
		}
		w.keepTree(key, tree)
		return tree, nil
	})
	return fsys, err
}

// keepTree files fsys as the most recently used tree under key and
// drops the least recently used ones beyond maxIdleTreeBytes.
func (w *Worker) keepTree(key string, fsys *fsim.FS) {
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	if w.trees == nil {
		w.trees = make(map[string]*fsim.FS)
	}
	w.trees[key] = fsys
	w.treeLRU.Add(key, fsys.TotalSize())
	victims, _ := w.treeLRU.Evict(maxIdleTreeBytes)
	for _, v := range victims {
		delete(w.trees, v)
	}
}

// executeTask runs one leased action and returns the runner's record
// of it, what the result report carries.
func (w *Worker) executeTask(ctx context.Context, t *LeasedTask) (*actioncache.Result, error) {
	base, err := w.baseFS(ctx, t.Spec.Base)
	if err != nil {
		return nil, err
	}
	// A structural share: the task's writes land in its own map, the
	// base's files are never copied.
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
