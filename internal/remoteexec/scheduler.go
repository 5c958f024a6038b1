package remoteexec

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Scheduler default tuning.
const (
	// DefaultHeartbeatTimeout is how long a silent worker stays alive.
	DefaultHeartbeatTimeout = 3 * time.Second
	// DefaultMaxAttempts bounds how often a task is reassigned after
	// worker failures before it is failed back to the executor.
	DefaultMaxAttempts = 3
	// maxPollWait caps the long-poll duration of the lease and status
	// endpoints; clients poll again for longer waits.
	maxPollWait = 10 * time.Second
	// keptTerminalTasks is how many of the most recently finished tasks
	// the scheduler still answers for: a late status poll, a retried or
	// reassigned-away worker's report. Older ones are forgotten, and a
	// report for one gets the 404 a worker treats as final.
	keptTerminalTasks = 1024
)

// schedWorker is the scheduler's view of one registered worker.
type schedWorker struct {
	id       string
	name     string
	slots    int
	platform Platform
	lastBeat time.Time
	inflight map[string]bool // task IDs leased to this worker
	// parked counts the worker's lease polls waiting in the scheduler.
	// An open lease poll is a standing sign of life: the worker is not
	// expired while it has one, and lastBeat is set when it ends.
	parked int
}

// schedTask is one submitted task and its lifecycle state.
type schedTask struct {
	id       string
	spec     TaskSpec
	state    string
	attempts int
	worker   string // current assignee while running
	payload  ResultReport
	// done is closed when state turns terminal (done or failed): what
	// a parked status poll waits for.
	done chan struct{}
}

func (t *schedTask) status() TaskStatus {
	return TaskStatus{
		ID:       t.id,
		State:    t.state,
		Attempts: t.attempts,
		Payload:  t.payload.Payload,
		Error:    t.payload.Error,
	}
}

// Scheduler is the farm's control plane. All state is in memory and
// guarded by one mutex; the HTTP surface (Handler) is the only API.
// Safe for concurrent use.
//
// It starts no goroutine and has no polling interval. A long poll that
// finds nothing parks on the event it waits for — leaseWake for a lease,
// the task's done channel for a status — and on one timer set to the
// earlier of its ?wait= deadline and the next instant a silent worker
// falls due for expiry (wakeTimeLocked). So dead workers are detected
// on time for as long as anyone is polling, and an executor with
// pending tasks always is.
type Scheduler struct {
	// HeartbeatTimeout expires workers silent for longer than this
	// (DefaultHeartbeatTimeout when zero).
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds reassignment of a task after worker failures
	// (DefaultMaxAttempts when zero).
	MaxAttempts int

	mu      sync.Mutex
	workers map[string]*schedWorker
	// tasks holds every live task and the last keptTerminalTasks
	// terminal ones, whose IDs terminal lists oldest first.
	tasks        map[string]*schedTask
	terminal     []string
	done, failed int      // tasks ever finished in each terminal state
	queue        []string // queued task IDs, FIFO
	nextID       int
	// leaseWake is closed and replaced (wakeLeasesLocked) whenever a
	// parked lease poll might now be granted something.
	leaseWake chan struct{}
}

// NewScheduler returns an empty farm scheduler.
func NewScheduler() *Scheduler {
	return &Scheduler{
		workers:   make(map[string]*schedWorker),
		tasks:     make(map[string]*schedTask),
		leaseWake: make(chan struct{}),
	}
}

func (s *Scheduler) heartbeatTimeout() time.Duration {
	if s.HeartbeatTimeout > 0 {
		return s.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (s *Scheduler) maxAttempts() int {
	if s.MaxAttempts > 0 {
		return s.MaxAttempts
	}
	return DefaultMaxAttempts
}

// expireLocked drops workers that missed their heartbeat window and
// requeues (or fails) their in-flight tasks; queued tasks whose
// platform no live worker can serve fail immediately so executors
// fall back to local execution instead of waiting out their poll.
// Callers hold s.mu.
func (s *Scheduler) expireLocked(now time.Time) {
	cutoff := now.Add(-s.heartbeatTimeout())
	for id, w := range s.workers {
		if w.parked > 0 || w.lastBeat.After(cutoff) {
			continue
		}
		delete(s.workers, id)
		for tid := range w.inflight {
			t, ok := s.tasks[tid]
			if !ok || t.state != StateRunning || t.worker != id {
				continue
			}
			s.requeueLocked(t, fmt.Sprintf("worker %s (%s) missed heartbeats", id, w.name))
		}
	}
	for _, tid := range append([]string(nil), s.queue...) {
		if t := s.tasks[tid]; !s.hasCompatibleLocked(t.spec.Platform) {
			s.failLocked(t, "no compatible worker remaining")
		}
	}
}

// wakeTimeLocked returns when a poll parking now must look again even
// if nothing wakes it: at deadline, or earlier if a worker falls due
// for expiry before that. Callers hold s.mu.
func (s *Scheduler) wakeTimeLocked(deadline time.Time) time.Time {
	for _, w := range s.workers {
		if due := w.lastBeat.Add(s.heartbeatTimeout()); w.parked == 0 && due.Before(deadline) {
			deadline = due
		}
	}
	return deadline
}

// wakeLeasesLocked releases every parked lease poll to try assignment
// again. Callers hold s.mu and call it after any transition that can
// turn an empty grant into a non-empty one: a task entering the queue,
// a slot freeing up.
func (s *Scheduler) wakeLeasesLocked() {
	close(s.leaseWake)
	s.leaseWake = make(chan struct{})
}

// park blocks a long poll until wake is closed or the time until
// arrives; a client that went away ends it with ctx's error.
func park(ctx context.Context, wake <-chan struct{}, until time.Time) error {
	t := time.NewTimer(time.Until(until))
	defer t.Stop()
	select {
	case <-wake:
	case <-t.C:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// requeueLocked returns a running task to the queue, or fails it when
// its attempt budget is spent.
func (s *Scheduler) requeueLocked(t *schedTask, why string) {
	t.worker = ""
	if t.attempts >= s.maxAttempts() {
		s.failLocked(t, fmt.Sprintf("%s after %d attempts", why, t.attempts))
		return
	}
	t.state = StateQueued
	s.queue = append(s.queue, t.id)
	s.wakeLeasesLocked()
}

// failLocked moves a task to its terminal failed state.
func (s *Scheduler) failLocked(t *schedTask, why string) {
	s.failed++
	s.finishLocked(t, StateFailed, ResultReport{Error: why})
}

// finishLocked makes t terminal with the given outcome: it leaves the
// queue (where a task requeued from the worker now reporting it still
// sits), the status polls parked on it are released, and the oldest
// terminal task beyond keptTerminalTasks is forgotten.
func (s *Scheduler) finishLocked(t *schedTask, state string, outcome ResultReport) {
	t.state = state
	t.worker = ""
	t.payload = outcome
	close(t.done)
	for i, id := range s.queue {
		if id == t.id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.terminal = append(s.terminal, t.id)
	if len(s.terminal) > keptTerminalTasks {
		delete(s.tasks, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

func (s *Scheduler) hasCompatibleLocked(p Platform) bool {
	for _, w := range s.workers {
		if w.platform.Compatible(p) {
			return true
		}
	}
	return false
}

// Status snapshots the farm for monitoring and tests.
func (s *Scheduler) Status() FarmStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(time.Now())
	var st FarmStatus
	for _, w := range s.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			ID: w.id, Name: w.name, Slots: w.slots,
			Inflight: len(w.inflight), Platform: w.platform,
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	// A task in s.tasks is in the queue, in s.terminal, or running.
	st.Queued = len(s.queue)
	st.Running = len(s.tasks) - len(s.queue) - len(s.terminal)
	st.Done, st.Failed = s.done, s.failed
	return st
}

// Handler returns the HTTP handler serving the farm API under
// APIPrefix. Mount it on the same mux as a registry's /v2/ tree to
// run a combined scheduler+blob endpoint.
func (s *Scheduler) Handler() http.Handler {
	return http.HandlerFunc(s.route)
}

func (s *Scheduler) route(w http.ResponseWriter, r *http.Request) {
	p, ok := strings.CutPrefix(r.URL.Path, APIPrefix+"/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	parts := strings.Split(strings.Trim(p, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] == "workers" && r.Method == http.MethodPost:
		s.handleRegister(w, r)
	case len(parts) == 3 && parts[0] == "workers" && parts[2] == "heartbeat" && r.Method == http.MethodPost:
		s.handleHeartbeat(w, r, parts[1])
	case len(parts) == 1 && parts[0] == "lease" && r.Method == http.MethodPost:
		s.handleLease(w, r)
	case len(parts) == 1 && parts[0] == "tasks" && r.Method == http.MethodPost:
		s.handleSubmit(w, r)
	case len(parts) == 2 && parts[0] == "tasks" && r.Method == http.MethodGet:
		s.handleTaskStatus(w, r, parts[1])
	case len(parts) == 3 && parts[0] == "tasks" && parts[2] == "result" && r.Method == http.MethodPost:
		s.handleResult(w, r, parts[1])
	case len(parts) == 1 && parts[0] == "status" && r.Method == http.MethodGet:
		writeJSON(w, s.Status())
	default:
		http.NotFound(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "malformed request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// pollWait parses the ?wait= duration of a long poll, clamped to
// [0, maxPollWait].
func pollWait(r *http.Request) time.Duration {
	ms, err := strconv.Atoi(r.URL.Query().Get("wait"))
	if err != nil || ms < 0 {
		return 0
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxPollWait {
		d = maxPollWait
	}
	return d
}

func (s *Scheduler) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Slots <= 0 {
		req.Slots = 1
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("w%d", s.nextID)
	s.workers[id] = &schedWorker{
		id: id, name: req.Name, slots: req.Slots,
		platform: req.Platform, lastBeat: time.Now(),
		inflight: make(map[string]bool),
	}
	s.mu.Unlock()
	// Workers must beat well inside the expiry window; a third leaves
	// room for two lost beats.
	writeJSON(w, RegisterResponse{WorkerID: id, HeartbeatMillis: s.heartbeatTimeout().Milliseconds() / 3})
}

func (s *Scheduler) handleHeartbeat(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	wk, ok := s.workers[id]
	if ok {
		wk.lastBeat = time.Now()
	}
	s.mu.Unlock()
	if !ok {
		// Expired while silent: the worker must re-register.
		http.Error(w, "unknown worker (expired?)", http.StatusGone)
		return
	}
	writeJSON(w, struct{}{})
}

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec TaskSpec
	if !readJSON(w, r, &spec) {
		return
	}
	if len(spec.Argv) == 0 {
		http.Error(w, "task has empty argv", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.expireLocked(time.Now())
	if !s.hasCompatibleLocked(spec.Platform) {
		s.mu.Unlock()
		writeJSON(w, SubmitResponse{NoWorker: true})
		return
	}
	s.nextID++
	t := &schedTask{id: fmt.Sprintf("t%d", s.nextID), spec: spec, state: StateQueued, done: make(chan struct{})}
	s.tasks[t.id] = t
	s.queue = append(s.queue, t.id)
	s.wakeLeasesLocked()
	s.mu.Unlock()
	writeJSON(w, SubmitResponse{TaskID: t.id})
}

// handleLease hands the polling worker the oldest queued task its
// platform can run, if it has a free slot, long-polling up to ?wait=
// for one to appear. The lease also counts as a heartbeat, for as long
// as it stays open.
func (s *Scheduler) handleLease(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("worker")
	deadline := time.Now().Add(pollWait(r))
	for {
		s.mu.Lock()
		now := time.Now()
		wk, ok := s.workers[id]
		if !ok {
			s.mu.Unlock()
			http.Error(w, "unknown worker (expired?)", http.StatusGone)
			return
		}
		wk.lastBeat = now
		s.expireLocked(now)
		leased := s.assignLocked(wk)
		if leased != nil || !now.Before(deadline) {
			s.mu.Unlock()
			writeJSON(w, LeaseResponse{Tasks: leased})
			return
		}
		wk.parked++
		wake, until := s.leaseWake, s.wakeTimeLocked(deadline)
		s.mu.Unlock()

		err := park(r.Context(), wake, until)

		s.mu.Lock()
		wk.parked--
		wk.lastBeat = time.Now()
		s.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// assignLocked moves the oldest queued task compatible with wk into
// its in-flight set and returns it as the lease's grant, or returns
// nil: assignment is capacity-aware, a worker never holds more tasks
// than it has slots. Callers hold s.mu.
func (s *Scheduler) assignLocked(wk *schedWorker) []*LeasedTask {
	if len(wk.inflight) >= wk.slots {
		return nil
	}
	for i, tid := range s.queue {
		t := s.tasks[tid]
		if !wk.platform.Compatible(t.spec.Platform) {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		t.state = StateRunning
		t.worker = wk.id
		t.attempts++
		wk.inflight[t.id] = true
		return []*LeasedTask{{ID: t.id, Spec: t.spec}}
	}
	return nil
}

// handleResult records a worker's report. Reports are idempotent:
// once a task is terminal, later reports (duplicates, or a
// reassigned-away worker finishing anyway) are acknowledged and
// dropped — first result wins, and because payloads are
// content-addressed a duplicate carries identical bytes anyway.
func (s *Scheduler) handleResult(w http.ResponseWriter, r *http.Request, tid string) {
	var rep ResultReport
	if !readJSON(w, r, &rep) {
		return
	}
	s.mu.Lock()
	t, ok := s.tasks[tid]
	if !ok {
		s.mu.Unlock()
		http.Error(w, "unknown task", http.StatusNotFound)
		return
	}
	if wk, live := s.workers[rep.WorkerID]; live {
		wk.lastBeat = time.Now()
		delete(wk.inflight, tid)
		s.wakeLeasesLocked() // a slot is free
	}
	switch {
	case t.state == StateDone || t.state == StateFailed:
		// Idempotent: already terminal.
	case rep.Error == "":
		s.done++
		s.finishLocked(t, StateDone, rep)
	case t.worker == rep.WorkerID:
		s.requeueLocked(t, rep.Error)
	default:
		// A failure from a worker the task was taken from: it is
		// queued or running elsewhere already.
	}
	st := t.status()
	s.mu.Unlock()
	writeJSON(w, st)
}

// handleTaskStatus long-polls a task until it is terminal or ?wait=
// elapses. The poll drives worker expiry, so an executor waiting on a
// task stuck on a dead worker sees the requeue/failure promptly.
func (s *Scheduler) handleTaskStatus(w http.ResponseWriter, r *http.Request, tid string) {
	deadline := time.Now().Add(pollWait(r))
	s.mu.Lock()
	t, ok := s.tasks[tid]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown task", http.StatusNotFound)
		return
	}
	for {
		s.mu.Lock()
		now := time.Now()
		s.expireLocked(now)
		st := t.status()
		until := s.wakeTimeLocked(deadline)
		s.mu.Unlock()
		if st.State == StateDone || st.State == StateFailed || !now.Before(deadline) {
			writeJSON(w, st)
			return
		}
		if park(r.Context(), t.done, until) != nil {
			return
		}
	}
}
