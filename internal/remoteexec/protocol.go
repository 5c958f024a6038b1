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
//     client), runs the command through toolchain.Runner, reports the
//     runner's record of it (an actioncache.Result) in the task's
//     result report. A worker stores no cache entry.
//
//   - Executor: the client side wired into backend.executeGraph via
//     toolchain.Runner's Remote hook. It pushes the rebuild
//     file system once per session as one uncompressed layer blob,
//     submits each ready action with its transitive dependencies'
//     outputs inside the task, reads the worker's record out of the
//     task's final status, and re-observes the record's inputs
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
	"errors"
	"fmt"
	"io"
	"net/http"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// APIPrefix roots every farm endpoint, so a scheduler can share a mux
// with a registry's /v2/ tree.
const APIPrefix = "/farm/v1"

// DefaultRepo is the registry repository holding the farm's session
// trees, tarfs layers — the farm has no format of its own.
const DefaultRepo = "comtainer-exec"

// maxJSONBody bounds a farm JSON body, request or response: a record the
// blob plane took (oci.MaxBlobSize) plus a MiB for the message around it.
const maxJSONBody = oci.MaxBlobSize + 1<<20

// errBodyTooLarge is a farm JSON body over maxJSONBody.
var errBodyTooLarge = errors.New("remoteexec: JSON body over the size bound")

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
	// Overlay is the outputs of the command's transitive dependencies,
	// written over the base tree before execution.
	Overlay []actioncache.Output `json:"overlay,omitempty"`
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

// LeaseResponse answers a worker's lease poll: the task granted, or
// none ({}) when the poll timed out with nothing assignable.
type LeaseResponse struct {
	Task *LeasedTask `json:"task,omitempty"`
}

// ResultReport is a worker reporting a finished task. A successful
// execution carries the runner's record of the action; a failed one
// carries Error.
type ResultReport struct {
	WorkerID string              `json:"workerId"`
	Record   *actioncache.Result `json:"record,omitempty"`
	Error    string              `json:"error,omitempty"`
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
	ID       string              `json:"id"`
	State    string              `json:"state"`
	Attempts int                 `json:"attempts"`
	Record   *actioncache.Result `json:"record,omitempty"`
	Error    string              `json:"error,omitempty"`
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

// decodeJSON decodes into v the JSON body of a request or response
// that declares length declared (-1: unknown), reading at most limit
// bytes of it: a body declaring more is refused unread, a longer one is
// cut at limit. Either is errBodyTooLarge.
func decodeJSON(body io.Reader, declared, limit int64, v any) error {
	if declared > limit {
		return errBodyTooLarge
	}
	lr := &io.LimitedReader{R: body, N: limit}
	err := json.NewDecoder(lr).Decode(v)
	if err != nil && lr.N == 0 {
		return errBodyTooLarge
	}
	return err
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
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxJSONBody))
		return nil
	}
	if err := decodeJSON(resp.Body, resp.ContentLength, maxJSONBody, out); err != nil {
		return fmt.Errorf("remoteexec: decoding %s response: %w", url, err)
	}
	return nil
}
