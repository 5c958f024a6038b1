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

// DefaultExecTimeout bounds the session's push and each action's full
// farm round trip (submit, then completion polls until the status
// carries the record). On expiry the action falls back to local
// execution; the rebuild never blocks on a wedged farm.
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
// scheduler through toolchain.Runner's Remote hook. PrepareLayers
// ships the rebuild file system once as layer blobs;
// ExecuteContext submits one ready action (with its transitive
// dependencies' outputs) and returns the worker's record of it, or
// (nil, nil) to signal "run it locally". Safe for concurrent use.
type Executor struct {
	// Scheduler is the farm base URL (also serving /v2/ blob traffic).
	Scheduler string
	// Client pushes the snapshot and carries the scheduler traffic.
	Client *distrib.Client
	// Platform every shipped task demands.
	Platform Platform

	mu   sync.Mutex
	base []digest.Digest // nil until a PrepareLayers succeeds

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

// PrepareContext publishes fsys as the session's file system, one
// layer: PrepareLayers with no lower layers.
func (e *Executor) PrepareContext(ctx context.Context, fsys *fsim.FS) error {
	return e.PrepareLayers(ctx, nil, nil, fsys)
}

// PrepareLayers publishes the session's file system as the layers
// lower, uncompressed tarfs layers src holds, with top applied over
// them, within DefaultExecTimeout; lower and top together are at most
// MaxBaseLayers. Each lower layer is pushed as src stores it, neither
// re-encoded nor hashed here: a blob the farm holds already costs one
// HEAD. top goes up as one layer of its own. Until it succeeds every
// ExecuteContext declines — an earlier session's base is forgotten
// before the push — so a failed one degrades the whole rebuild to
// local execution.
func (e *Executor) PrepareLayers(ctx context.Context, src distrib.BlobSource, lower []digest.Digest, top *fsim.FS) error {
	ctx, cancel := context.WithTimeout(ctx, DefaultExecTimeout)
	defer cancel()
	e.mu.Lock()
	e.base = nil
	e.mu.Unlock()
	if len(lower) >= MaxBaseLayers {
		return fmt.Errorf("remoteexec: %d lower layers and a session layer exceed %d", len(lower), MaxBaseLayers)
	}
	for _, d := range lower {
		if err := e.Client.PushBlob(ctx, DefaultRepo, src, d); err != nil {
			return fmt.Errorf("remoteexec: pushing layer %s: %w", d.Short(), err)
		}
	}
	td, err := PushTree(ctx, e.Client, top)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.base = append(lower[:len(lower):len(lower)], td)
	e.mu.Unlock()
	return nil
}

// ExecuteContext offers one cache-missed command to the farm, within
// DefaultExecTimeout. overlay is the outputs of the command's
// transitive dependencies, applied over the base on the worker.
// Any farm-side problem — no compatible worker, exhausted attempts,
// timeouts, transport failures — returns (nil, nil): the caller runs
// the command locally and the rebuild proceeds.
func (e *Executor) ExecuteContext(ctx context.Context, argv []string, cwd string, overlay []actioncache.Output) (*actioncache.Result, error) {
	e.mu.Lock()
	base := e.base
	e.mu.Unlock()
	if base == nil {
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
func (e *Executor) tryFarm(ctx context.Context, argv []string, cwd string, overlay []actioncache.Output, base []digest.Digest) (*actioncache.Result, error) {
	spec := TaskSpec{
		Argv:     argv,
		Cwd:      cwd,
		Platform: e.Platform,
		Base:     base,
		Overlay:  overlay,
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
			if st.Record == nil {
				return nil, fmt.Errorf("remoteexec: task %s done without a record", st.ID)
			}
			return st.Record, nil
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
