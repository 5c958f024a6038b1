package remoteexec

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"comtainer/internal/digest"
)

var testPlatform = Platform{ISA: "x86", System: "x86-64", Toolchains: "fp-test"}

func testSpec() TaskSpec {
	return TaskSpec{
		Argv:     []string{"cc", "-c", "main.c"},
		Cwd:      "/src",
		Platform: testPlatform,
		Repo:     DefaultRepo,
	}
}

// farm serves sched under httptest and wraps the JSON round trips.
type farm struct {
	t  *testing.T
	ts *httptest.Server
	hc *http.Client
}

func newFarm(t *testing.T, sched *Scheduler) *farm {
	t.Helper()
	ts := httptest.NewServer(sched.Handler())
	t.Cleanup(ts.Close)
	return &farm{t: t, ts: ts, hc: ts.Client()}
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
		f.t.Fatalf("lease without ?max= granted %d tasks, want at most 1", len(resp.Tasks))
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
// worker drains the queue.
func TestWorkerRegistersMidFlight(t *testing.T) {
	f := newFarm(t, NewScheduler())
	var resp SubmitResponse
	f.must(http.MethodPost, "/tasks", testSpec(), &resp)
	if !resp.NoWorker {
		t.Fatalf("empty farm accepted a task: %+v", resp)
	}

	wid := f.register("late-joiner", 2)
	tid := f.submit()
	lt := f.lease(wid, 0)
	if lt == nil || lt.ID != tid {
		t.Fatalf("lease after mid-flight registration: got %+v, want task %s", lt, tid)
	}
	var st TaskStatus
	f.must(http.MethodPost, "/tasks/"+tid+"/result",
		ResultReport{WorkerID: wid, Payload: digest.FromBytes([]byte("r1"))}, &st)
	if st.State != StateDone {
		t.Fatalf("task state %q after result, want %q", st.State, StateDone)
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
	var st TaskStatus
	f.must(http.MethodPost, "/tasks/"+tid+"/result",
		ResultReport{WorkerID: alive, Payload: digest.FromBytes([]byte("ok"))}, &st)
	if st.State != StateDone {
		t.Fatalf("state %q after healthy result, want %q", st.State, StateDone)
	}

	// The silent worker is gone: its next heartbeat is told to
	// re-register.
	err := f.do(http.MethodPost, "/workers/"+dead+"/heartbeat", nil, &struct{}{})
	if !isStatus(err, http.StatusGone) {
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

func (f *farm) leaseBatch(worker string, max int, wait time.Duration) []*LeasedTask {
	f.t.Helper()
	var resp LeaseResponse
	f.must(http.MethodPost, "/lease?worker="+worker+"&max="+strconv.Itoa(max)+"&wait="+itoa(wait), nil, &resp)
	return resp.Tasks
}

// TestLeaseBatchFillsSlotsPlusLookahead: a lone worker's batched poll
// is granted its free slots plus exactly one lookahead task — and no
// more, however large the queue or the requested budget.
func TestLeaseBatchFillsSlotsPlusLookahead(t *testing.T) {
	f := newFarm(t, NewScheduler())
	w := f.register("solo", 2)
	for i := 0; i < 5; i++ {
		f.submit()
	}
	got := f.leaseBatch(w, 4, 0)
	if len(got) != 3 {
		t.Fatalf("batch lease granted %d tasks, want 2 slots + 1 lookahead = 3", len(got))
	}
	// The lookahead is already out: the next poll gets nothing until
	// something is reported back.
	if again := f.leaseBatch(w, 4, 0); len(again) != 0 {
		t.Fatalf("second batch lease granted %d tasks while over capacity", len(again))
	}
	// Reporting one task frees a slot; the queue drains further.
	f.must(http.MethodPost, "/tasks/"+got[0].ID+"/result", ResultReport{WorkerID: w, Payload: digest.FromBytes([]byte("r"))}, nil)
	if next := f.leaseBatch(w, 4, 0); len(next) != 1 {
		t.Fatalf("post-report batch lease granted %d tasks, want 1", len(next))
	}
}

// TestLeaseBatchLeavesWorkForIdlePeer: lookahead must never starve an
// idle compatible worker — the batch stops at capacity while a peer
// has a free slot.
func TestLeaseBatchLeavesWorkForIdlePeer(t *testing.T) {
	f := newFarm(t, NewScheduler())
	w1 := f.register("first", 1)
	w2 := f.register("second", 1)
	for i := 0; i < 3; i++ {
		f.submit()
	}
	if got := f.leaseBatch(w1, 4, 0); len(got) != 1 {
		t.Fatalf("w1 granted %d tasks with an idle peer, want exactly its 1 slot", len(got))
	}
	// With w1 now saturated, w2 fills its slot and may take the
	// remaining task as lookahead.
	if got := f.leaseBatch(w2, 4, 0); len(got) != 2 {
		t.Fatalf("w2 granted %d tasks, want 1 slot + 1 lookahead", len(got))
	}
}
