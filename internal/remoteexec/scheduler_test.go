package remoteexec

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/registry"
)

var testPlatform = Platform{ISA: "x86", System: "x86-64", Toolchains: "fp-test"}

func testSpec() TaskSpec {
	return TaskSpec{
		Argv:     []string{"cc", "-c", "main.c"},
		Cwd:      "/src",
		Platform: testPlatform,
	}
}

// farm serves sched, beside a registry's blob plane, under httptest and
// wraps the JSON round trips.
type farm struct {
	t  *testing.T
	ts *httptest.Server
	hc *distrib.Client
}

func newFarm(t *testing.T, sched *Scheduler) *farm {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(APIPrefix+"/", sched.Handler())
	mux.Handle("/", registry.NewServer().Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &farm{t: t, ts: ts, hc: &distrib.Client{HTTP: ts.Client()}}
}

func (f *farm) url(path string) string { return f.ts.URL + APIPrefix + path }

func (f *farm) do(method, path string, in, out any) error {
	return doJSON(context.Background(), f.hc, method, f.url(path), in, out)
}

func (f *farm) must(method, path string, in, out any) {
	f.t.Helper()
	if err := f.do(method, path, in, out); err != nil {
		f.t.Fatalf("%s %s: %v", method, path, err)
	}
}

func (f *farm) register(name string, slots int) string {
	f.t.Helper()
	var resp RegisterResponse
	f.must(http.MethodPost, "/workers", RegisterRequest{Name: name, Slots: slots, Platform: testPlatform}, &resp)
	return resp.WorkerID
}

func (f *farm) submit() string {
	f.t.Helper()
	var resp SubmitResponse
	f.must(http.MethodPost, "/tasks", testSpec(), &resp)
	if resp.NoWorker || resp.TaskID == "" {
		f.t.Fatalf("submit: expected a task ID, got %+v", resp)
	}
	return resp.TaskID
}

func (f *farm) lease(worker string, wait time.Duration) *LeasedTask {
	f.t.Helper()
	var resp LeaseResponse
	f.must(http.MethodPost, "/lease?worker="+worker+"&wait="+itoa(wait), nil, &resp)
	if len(resp.Tasks) > 1 {
		f.t.Fatalf("lease granted %d tasks, want at most 1", len(resp.Tasks))
	}
	if len(resp.Tasks) == 0 {
		return nil
	}
	return resp.Tasks[0]
}

func (f *farm) taskStatus(id string, wait time.Duration) TaskStatus {
	f.t.Helper()
	var st TaskStatus
	f.must(http.MethodGet, "/tasks/"+id+"?wait="+itoa(wait), nil, &st)
	return st
}

func itoa(d time.Duration) string {
	ms := d.Milliseconds()
	if ms <= 0 {
		return "0"
	}
	digits := ""
	for ; ms > 0; ms /= 10 {
		digits = string(rune('0'+ms%10)) + digits
	}
	return digits
}

// TestSubmitZeroWorkerFarm covers the local-fallback contract: a farm
// with no (compatible) workers declines at submit time rather than
// queueing a task nobody will ever lease.
func TestSubmitZeroWorkerFarm(t *testing.T) {
	f := newFarm(t, NewScheduler())
	var resp SubmitResponse
	f.must(http.MethodPost, "/tasks", testSpec(), &resp)
	if !resp.NoWorker {
		t.Fatalf("empty farm accepted a task: %+v", resp)
	}

	// A worker on the wrong platform is just as useless.
	other := testPlatform
	other.Toolchains = "fp-other"
	var reg RegisterResponse
	f.must(http.MethodPost, "/workers", RegisterRequest{Name: "alien", Slots: 1, Platform: other}, &reg)
	f.must(http.MethodPost, "/tasks", testSpec(), &resp)
	if !resp.NoWorker {
		t.Fatalf("incompatible-only farm accepted a task: %+v", resp)
	}
}

// TestWorkerRegistersMidFlight covers a worker joining while the
// executor is mid-DAG: submits that declined with NoWorker start
// succeeding as soon as a compatible worker registers, and the new
// worker drains the queue — one task per lease, never more than it has
// free slots, the next one going to an idle peer.
func TestWorkerRegistersMidFlight(t *testing.T) {
	f := newFarm(t, NewScheduler())
	var resp SubmitResponse
	f.must(http.MethodPost, "/tasks", testSpec(), &resp)
	if !resp.NoWorker {
		t.Fatalf("empty farm accepted a task: %+v", resp)
	}

	wid := f.register("late-joiner", 2)
	tids := []string{f.submit(), f.submit(), f.submit(), f.submit()}
	for _, tid := range tids[:2] {
		if lt := f.lease(wid, 0); lt == nil || lt.ID != tid {
			t.Fatalf("lease after mid-flight registration: got %+v, want task %s", lt, tid)
		}
	}
	if lt := f.lease(wid, 0); lt != nil {
		t.Fatalf("worker with both slots taken was granted %+v", lt)
	}
	peer := f.register("idle-peer", 1)
	if lt := f.lease(peer, 0); lt == nil || lt.ID != tids[2] {
		t.Fatalf("idle peer's lease: got %+v, want task %s", lt, tids[2])
	}
	var st TaskStatus
	f.must(http.MethodPost, "/tasks/"+tids[0]+"/result",
		ResultReport{WorkerID: wid, Payload: digest.FromBytes([]byte("r1"))}, &st)
	if st.State != StateDone {
		t.Fatalf("task state %q after result, want %q", st.State, StateDone)
	}
	// The report freed a slot; the queue drains further.
	if lt := f.lease(wid, 0); lt == nil || lt.ID != tids[3] {
		t.Fatalf("lease after a report: got %+v, want task %s", lt, tids[3])
	}
}

// TestDuplicateResultIdempotent covers exactly-once semantics at the
// control plane: once a task is terminal, later reports — retries, or
// a reassigned-away worker finishing anyway — are acknowledged without
// overwriting the recorded result.
func TestDuplicateResultIdempotent(t *testing.T) {
	f := newFarm(t, NewScheduler())
	wid := f.register("w", 1)
	tid := f.submit()
	if lt := f.lease(wid, 0); lt == nil || lt.ID != tid {
		t.Fatalf("lease: got %+v, want task %s", lt, tid)
	}

	first := digest.FromBytes([]byte("result-1"))
	second := digest.FromBytes([]byte("result-2"))
	var st TaskStatus
	f.must(http.MethodPost, "/tasks/"+tid+"/result", ResultReport{WorkerID: wid, Payload: first}, &st)
	if st.State != StateDone || st.Payload != first {
		t.Fatalf("first report: state %q payload %s", st.State, st.Payload)
	}
	// Duplicate from the same worker, then a conflicting report from an
	// unknown worker: both must be dropped on the floor.
	f.must(http.MethodPost, "/tasks/"+tid+"/result", ResultReport{WorkerID: wid, Payload: second}, &st)
	if st.State != StateDone || st.Payload != first {
		t.Fatalf("duplicate report overwrote result: state %q payload %s", st.State, st.Payload)
	}
	f.must(http.MethodPost, "/tasks/"+tid+"/result", ResultReport{WorkerID: "ghost", Error: "late failure"}, &st)
	if st.State != StateDone || st.Payload != first || st.Error != "" {
		t.Fatalf("post-terminal error report mutated task: %+v", st)
	}
	if got := f.taskStatus(tid, 0); got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", got.Attempts)
	}
}

// TestHeartbeatMissReassigns covers the failure model's core promise: a
// task leased to a worker that stops heartbeating is requeued within
// the heartbeat window and a healthy worker picks it up.
func TestHeartbeatMissReassigns(t *testing.T) {
	sched := NewScheduler()
	sched.HeartbeatTimeout = 150 * time.Millisecond
	f := newFarm(t, sched)

	dead := f.register("flaky", 1)
	tid := f.submit()
	if lt := f.lease(dead, 0); lt == nil || lt.ID != tid {
		t.Fatalf("initial lease: got %+v, want task %s", lt, tid)
	}
	// "flaky" now goes silent. A healthy worker registers and polls;
	// its leases drive expiry, so the task must come back to it.
	alive := f.register("healthy", 1)
	var got *LeasedTask
	deadline := time.Now().Add(5 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		got = f.lease(alive, 100*time.Millisecond)
	}
	if got == nil || got.ID != tid {
		t.Fatalf("task not reassigned to healthy worker, got %+v", got)
	}
	if st := f.taskStatus(tid, 0); st.State != StateRunning || st.Attempts != 2 {
		t.Fatalf("reassigned task: state %q attempts %d, want running/2", st.State, st.Attempts)
	}
	// The silent worker's failure report arrives after all: the task is
	// no longer its to fail, and stays where it is.
	var st TaskStatus
	f.must(http.MethodPost, "/tasks/"+tid+"/result", ResultReport{WorkerID: dead, Error: "late failure"}, &st)
	if st.State != StateRunning || st.Attempts != 2 {
		t.Fatalf("after the expired worker's late failure: state %q attempts %d, want running/2", st.State, st.Attempts)
	}
	if farm := sched.Status(); farm.Queued != 0 || farm.Running != 1 {
		t.Fatalf("after the expired worker's late failure: %+v, want the task running once", farm)
	}
	f.must(http.MethodPost, "/tasks/"+tid+"/result",
		ResultReport{WorkerID: alive, Payload: digest.FromBytes([]byte("ok"))}, &st)
	if st.State != StateDone {
		t.Fatalf("state %q after healthy result, want %q", st.State, StateDone)
	}

	// The silent worker is gone: its next heartbeat is told to
	// re-register.
	err := f.do(http.MethodPost, "/workers/"+dead+"/heartbeat", nil, &struct{}{})
	if distrib.StatusCode(err) != http.StatusGone {
		t.Fatalf("heartbeat of expired worker: %v, want 410", err)
	}
}

// TestAttemptBudgetFails covers the reassignment bound: a task whose
// every attempt ends in a worker failure is failed back to the
// executor instead of looping forever.
func TestAttemptBudgetFails(t *testing.T) {
	sched := NewScheduler()
	sched.MaxAttempts = 2
	f := newFarm(t, sched)
	wid := f.register("w", 1)
	tid := f.submit()

	for attempt := 1; ; attempt++ {
		lt := f.lease(wid, 0)
		if lt == nil {
			t.Fatalf("attempt %d: no lease", attempt)
		}
		var st TaskStatus
		f.must(http.MethodPost, "/tasks/"+tid+"/result",
			ResultReport{WorkerID: wid, Error: "compiler exploded"}, &st)
		if st.State == StateFailed {
			if attempt != 2 {
				t.Fatalf("failed after %d attempts, want 2", attempt)
			}
			if st.Error == "" {
				t.Fatal("failed task carries no error")
			}
			return
		}
		if attempt > 2 {
			t.Fatalf("task still %q after %d attempts", st.State, attempt)
		}
	}
}

// TestQueuedTasksFailWhenFarmEmpties covers executor liveness: queued
// tasks whose platform no live worker can serve fail promptly instead
// of pinning the executor to its full poll timeout.
func TestQueuedTasksFailWhenFarmEmpties(t *testing.T) {
	sched := NewScheduler()
	sched.HeartbeatTimeout = 100 * time.Millisecond
	f := newFarm(t, sched)
	wid := f.register("only", 1)
	running := f.submit()
	queued := f.submit()
	if lt := f.lease(wid, 0); lt == nil || lt.ID != running {
		t.Fatalf("lease: got %+v, want %s", lt, running)
	}
	// The only worker dies. Status polls drive expiry: the running task
	// requeues, then both queued tasks fail for want of workers.
	for _, tid := range []string{running, queued} {
		var st TaskStatus
		deadline := time.Now().Add(5 * time.Second)
		for {
			st = f.taskStatus(tid, 200*time.Millisecond)
			if st.Terminal() || time.Now().After(deadline) {
				break
			}
		}
		if st.State != StateFailed {
			t.Fatalf("task %s: state %q, want %q", tid, st.State, StateFailed)
		}
	}
}

// TestTerminalTasksAreBounded: a scheduler serving rebuild after
// rebuild keeps only the most recent terminal tasks — the map does not
// grow with the number ever finished — while the farm status still
// counts every one, a recent task still answers, and a report for a
// forgotten one gets the 404 a worker treats as final.
func TestTerminalTasksAreBounded(t *testing.T) {
	sched := NewScheduler()
	f := newFarm(t, sched)
	wid := f.register("w", 1)
	const n = 3 * keptTerminalTasks
	done := ResultReport{WorkerID: wid, Payload: digest.FromBytes([]byte("r"))}
	var first, last string
	for i := 0; i < n; i++ {
		last = f.submit()
		if i == 0 {
			first = last
		}
		if lt := f.lease(wid, 0); lt == nil || lt.ID != last {
			t.Fatalf("lease %d: got %+v, want task %s", i, lt, last)
		}
		f.must(http.MethodPost, "/tasks/"+last+"/result", done, nil)
	}
	sched.mu.Lock()
	kept, listed := len(sched.tasks), len(sched.terminal)
	sched.mu.Unlock()
	if kept != keptTerminalTasks || listed != keptTerminalTasks {
		t.Errorf("%d tasks kept (%d listed terminal) after %d finished, want %d", kept, listed, n, keptTerminalTasks)
	}
	if st := sched.Status(); st.Done != n || st.Failed != 0 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("status %+v, want %d done and nothing else", st, n)
	}
	if st := f.taskStatus(last, 0); st.State != StateDone || st.Payload != done.Payload {
		t.Errorf("most recent task: %+v, want done with its result", st)
	}
	if err := f.do(http.MethodPost, "/tasks/"+first+"/result", done, nil); distrib.StatusCode(err) != http.StatusNotFound {
		t.Errorf("late report for a forgotten task: %v, want 404", err)
	}
}
