package remoteexec

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// DefaultExecTimeout bounds the base-tree push and each action's full
// farm round trip (overlay push, submit, completion wait, record
// fetch). On expiry the action falls back to local execution; the
// rebuild never blocks on a wedged farm.
const DefaultExecTimeout = 2 * time.Minute

// statusWaitMillis is the long-poll window of one completion check.
const statusWaitMillis = 2000

// ExecStats counts where a rebuild's cache-miss actions ran.
type ExecStats struct {
	// Remote actions completed on farm workers.
	Remote int64
	// Local actions that fell back to local execution (farm declined,
	// failed, or was never prepared).
	Local int64
	// Errors counts farm round trips that ended in an error (a subset
	// of Local).
	Errors int64
}

func (s ExecStats) String() string {
	return fmt.Sprintf("%d remote, %d local (%d farm errors)", s.Remote, s.Local, s.Errors)
}

// Executor is the client side of the farm, wired into the rebuild
// scheduler through toolchain.Runner's Remote hook. PrepareContext
// ships the rebuild file system once as one layer blob;
// ExecuteContext ships one ready action (with an overlay of its
// transitive dependencies' outputs) and returns the worker's record
// of it, or (nil, nil) to signal "run it locally". Safe for
// concurrent use.
type Executor struct {
	// Scheduler is the farm base URL (also serving /v2/ blob traffic).
	Scheduler string
	// Client moves the snapshot, overlays and action records.
	Client *distrib.Client
	// Platform every shipped task demands.
	Platform Platform

	mu       sync.Mutex
	baseTree digest.Digest // "" until a PrepareContext succeeds

	remote, local, errs atomic.Int64
}

// NewExecutor returns an executor submitting to the farm at
// scheduler, demanding sys's ISA under reg's toolchain fingerprint.
func NewExecutor(scheduler string, sys *sysprofile.System, reg *toolchain.Registry) *Executor {
	return &Executor{
		Scheduler: scheduler,
		Client:    distrib.NewClient(scheduler),
		Platform:  Platform{ISA: sys.ISA, System: sys.Name, Toolchains: reg.Fingerprint()},
	}
}

// Stats snapshots the executor's routing counters.
func (e *Executor) Stats() ExecStats {
	return ExecStats{Remote: e.remote.Load(), Local: e.local.Load(), Errors: e.errs.Load()}
}

// PrepareContext publishes fsys as the session's base tree, within
// DefaultExecTimeout. Until it succeeds every ExecuteContext declines
// — an earlier session's tree is forgotten before the push — so a
// failed one degrades the whole rebuild to local execution.
func (e *Executor) PrepareContext(ctx context.Context, fsys *fsim.FS) error {
	ctx, cancel := context.WithTimeout(ctx, DefaultExecTimeout)
	defer cancel()
	e.mu.Lock()
	e.baseTree = ""
	e.mu.Unlock()
	td, err := PushTree(ctx, e.Client, fsys)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.baseTree = td
	e.mu.Unlock()
	return nil
}

// ExecuteContext offers one cache-missed command to the farm, within
// DefaultExecTimeout. overlay is the outputs of the command's
// transitive dependencies, applied over the base tree on the worker.
// Any farm-side problem — no compatible worker, exhausted attempts,
// timeouts, transport failures — returns (nil, nil): the caller runs
// the command locally and the rebuild proceeds.
func (e *Executor) ExecuteContext(ctx context.Context, argv []string, cwd string, overlay []actioncache.Output) (*actioncache.Result, error) {
	e.mu.Lock()
	base := e.baseTree
	e.mu.Unlock()
	if base == "" {
		e.local.Add(1)
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(ctx, DefaultExecTimeout)
	defer cancel()
	rr, err := e.tryFarm(ctx, argv, cwd, overlay, base)
	if err != nil || rr == nil {
		if err != nil {
			e.errs.Add(1)
		}
		e.local.Add(1)
		return nil, nil
	}
	e.remote.Add(1)
	return rr, nil
}

// tryFarm performs one full farm round trip. A nil, nil return means
// the farm declined cleanly (no compatible worker).
func (e *Executor) tryFarm(ctx context.Context, argv []string, cwd string, overlay []actioncache.Output, base digest.Digest) (*actioncache.Result, error) {
	spec := TaskSpec{
		Argv:     argv,
		Cwd:      cwd,
		Platform: e.Platform,
		BaseTree: base,
	}
	if len(overlay) > 0 {
		od, err := pushResult(ctx, e.Client, actioncache.Result{Outputs: overlay})
		if err != nil {
			return nil, err
		}
		spec.Overlay = od
	}
	var sub SubmitResponse
	if err := doJSON(ctx, e.Client, http.MethodPost, e.Scheduler+APIPrefix+"/tasks", spec, &sub); err != nil {
		return nil, err
	}
	if sub.NoWorker {
		return nil, nil
	}
	statusURL := fmt.Sprintf("%s%s/tasks/%s?wait=%d", e.Scheduler, APIPrefix, sub.TaskID, statusWaitMillis)
	for {
		var st TaskStatus
		if err := doJSON(ctx, e.Client, http.MethodGet, statusURL, nil, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case StateDone:
			res, err := fetchResult(ctx, e.Client, st.Payload)
			if err != nil {
				return nil, err
			}
			return &res, nil
		case StateFailed:
			return nil, fmt.Errorf("remoteexec: task %s failed on the farm: %s", st.ID, st.Error)
		}
		// Still queued/running: the long poll already waited; check
		// ctx before the next round so a cancelled rebuild stops.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}
