// Package remoteexec is the build farm for rebuild actions: an
// executor-worker protocol over HTTP (stdlib-only, in the registry's
// style) that moves cache-miss toolchain commands from the rebuilding
// client onto a pool of registered workers.
//
// The pieces:
//
//   - Scheduler: an HTTP service (mounted beside a registry's /v2/
//     tree, or standalone) where workers register, heartbeat and lease
//     tasks, and executors submit ready actions from the rebuild DAG
//     and long-poll their completion. Assignment is capacity-aware:
//     a worker only holds as many tasks as it has free slots, and
//     tasks carry platform properties (ISA, toolchain-registry
//     fingerprint) a worker must match.
//
//   - Worker: registers with its slot count and platform, leases
//     tasks, materializes the executor's file-system snapshot from
//     one registry blob (a tarfs layer, moved through the distrib
//     client), runs the command through toolchain.Runner, publishes
//     the runner's record of it (an actioncache.Result) as a blob, and
//     writes the action-cache entries through to the shared
//     actioncache.RemoteCache so every farm execution warms the fleet
//     cache.
//
//   - Executor: the client side wired into backend.executeGraph via
//     toolchain.Runner's Remote hook. It pushes the rebuild
//     file system once per session as one uncompressed layer blob,
//     ships each ready action (plus an overlay of its transitive
//     dependencies' outputs), and re-observes the returned inputs
//     against its own file system before recording the result — the
//     local action cache stays executor-authoritative.
//
// Failure model: workers that miss heartbeats are expired by the
// scheduler's parked long polls (each sets a timer for the next expiry
// due; there is no tick) and their in-flight tasks requeued
// (bounded attempts); a farm with no compatible worker declines at
// submit time; every farm error degrades to local execution, so a
// rebuild never fails because the farm did.
package remoteexec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
)

// APIPrefix roots every farm endpoint, so a scheduler can share a mux
// with a registry's /v2/ tree.
const APIPrefix = "/farm/v1"

// DefaultRepo is the registry repository holding execution blobs:
// session trees (tarfs layers), overlays and action records (both
// actioncache.Result documents) — the farm has no format of its own.
const DefaultRepo = "comtainer-exec"

// Platform is the execution compatibility contract between a task and
// a worker: the ISA the toolchain targets and the fingerprint of the
// toolchain registry the command must run under. System is
// informational (status output); only ISA and Toolchains gate
// assignment.
type Platform struct {
	ISA        string `json:"isa"`
	System     string `json:"system,omitempty"`
	Toolchains string `json:"toolchains"`
}

// Compatible reports whether a worker with platform w can run a task
// demanding platform t.
func (w Platform) Compatible(t Platform) bool {
	return w.ISA == t.ISA && w.Toolchains == t.Toolchains
}

// RegisterRequest is a worker announcing itself.
type RegisterRequest struct {
	Name     string   `json:"name"`
	Slots    int      `json:"slots"`
	Platform Platform `json:"platform"`
}

// RegisterResponse carries the scheduler-assigned worker identity and
// the heartbeat interval the worker must honor.
type RegisterResponse struct {
	WorkerID        string `json:"workerId"`
	HeartbeatMillis int64  `json:"heartbeatMillis"`
}

// TaskSpec is one rebuild command shipped to the farm.
type TaskSpec struct {
	Argv []string `json:"argv"`
	Cwd  string   `json:"cwd"`
	// Platform the command must execute under.
	Platform Platform `json:"platform"`
	// BaseTree is the digest of the session's file-system snapshot, an
	// uncompressed tarfs layer in DefaultRepo, pushed once per rebuild.
	BaseTree digest.Digest `json:"baseTree"`
	// Overlay, when non-empty, is the digest of an action-record blob
	// whose outputs (the transitive dependencies' products) are
	// applied on top of the base tree before execution.
	Overlay digest.Digest `json:"overlay,omitempty"`
}

// SubmitResponse answers a task submission. NoWorker means the farm
// currently has no live worker compatible with the task's platform;
// the executor runs the command locally instead.
type SubmitResponse struct {
	TaskID   string `json:"taskId,omitempty"`
	NoWorker bool   `json:"noWorker,omitempty"`
}

// LeasedTask is a task handed to a worker.
type LeasedTask struct {
	ID   string   `json:"id"`
	Spec TaskSpec `json:"spec"`
}

// LeaseResponse answers a worker's lease poll: the one task granted,
// or none when the poll timed out with nothing assignable.
type LeaseResponse struct {
	Tasks []*LeasedTask `json:"tasks,omitempty"`
}

// ResultReport is a worker reporting a finished task. A successful
// execution carries the digest of the action-record blob (pushed to
// DefaultRepo before reporting); a failed one carries Error.
type ResultReport struct {
	WorkerID string        `json:"workerId"`
	Payload  digest.Digest `json:"payload,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Task states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// TaskStatus is the executor-visible state of a submitted task.
type TaskStatus struct {
	ID       string        `json:"id"`
	State    string        `json:"state"`
	Attempts int           `json:"attempts"`
	Payload  digest.Digest `json:"payload,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Terminal reports whether the task has reached a final state.
func (s TaskStatus) Terminal() bool { return s.State == StateDone || s.State == StateFailed }

// WorkerStatus is one worker's row in the farm status.
type WorkerStatus struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Slots    int      `json:"slots"`
	Inflight int      `json:"inflight"`
	Platform Platform `json:"platform"`
}

// FarmStatus is the scheduler's aggregate view.
type FarmStatus struct {
	Workers []WorkerStatus `json:"workers"`
	Queued  int            `json:"queued"`
	Running int            `json:"running"`
	Done    int            `json:"done"`
	Failed  int            `json:"failed"`
}

// doJSON performs one scheduler request through c (and so through the
// transport that carries its blob traffic) with a JSON body (nil in =
// no body) and decodes the JSON response into out (nil out = discard).
// Anything but the scheduler's 200 is an error distrib.StatusCode reads.
func doJSON(ctx context.Context, c *distrib.Client, method, url string, in, out any) error {
	var body io.Reader
	var header http.Header
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("remoteexec: marshaling request: %w", err)
		}
		body, header = bytes.NewReader(b), http.Header{"Content-Type": {"application/json"}}
	}
	resp, err := c.Do(ctx, method, url, header, body, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("remoteexec: decoding %s response: %w", url, err)
	}
	return nil
}
