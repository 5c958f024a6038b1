package remoteexec

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"comtainer/internal/distrib"
)

// The scheduler's long polls have no re-check interval: a parked poll
// returns because what it waits for happened, because a silent worker
// fell due for expiry, or because its client left. One test per cause.

// wakeFarm is a farm whose handler reports each long poll (lease or
// task status) as it arrives and again when its handler has returned.
type wakeFarm struct {
	*farm
	sched             *Scheduler
	arrived, returned chan string // request paths
}

func newWakeFarm(t *testing.T, sched *Scheduler) *wakeFarm {
	t.Helper()
	// Room for every long poll of a test: the handler never blocks on a
	// test that has stopped listening.
	w := &wakeFarm{sched: sched, arrived: make(chan string, 16), returned: make(chan string, 16)}
	inner := sched.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		poll := strings.HasSuffix(r.URL.Path, "/lease") || r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/tasks/")
		if poll {
			w.arrived <- r.URL.Path
		}
		inner.ServeHTTP(rw, r)
		if poll {
			w.returned <- r.URL.Path
		}
	}))
	t.Cleanup(ts.Close)
	w.farm = &farm{t: t, ts: ts, hc: &distrib.Client{HTTP: ts.Client()}}
	return w
}

// awaitParked blocks until worker id has n lease polls parked.
func (w *wakeFarm) awaitParked(id string, n int) {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.sched.mu.Lock()
		wk := w.sched.workers[id]
		parked := wk != nil && wk.parked == n
		w.sched.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("worker %s never had %d lease polls parked", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func await(t *testing.T, what string, c <-chan string) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestSchedulerWakeOnEvent: a lease parked for ten seconds returns its
// task when the submit arrives, and a status poll parked for ten
// seconds returns "done" when the result does — not at the deadline.
func TestSchedulerWakeOnEvent(t *testing.T) {
	f := newWakeFarm(t, NewScheduler())
	wid := f.register("w", 1)

	leased := make(chan *LeasedTask, 1)
	go func() {
		var resp LeaseResponse
		if err := f.do(http.MethodPost, "/lease?worker="+wid+"&wait=10000", nil, &resp); err != nil || resp.Task == nil {
			t.Errorf("parked lease: %v, task %+v", err, resp.Task)
		}
		leased <- resp.Task
	}()
	f.awaitParked(wid, 1)
	start := time.Now()
	tid := f.submit()
	select {
	case lt := <-leased:
		if lt == nil || lt.ID != tid {
			t.Fatalf("parked lease returned %+v, want task %s", lt, tid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease not woken by the submit")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("lease returned %v after the submit, want well under 1s", d)
	}
	<-f.arrived
	<-f.returned

	status := make(chan TaskStatus, 1)
	go func() {
		var st TaskStatus
		if err := f.do(http.MethodGet, "/tasks/"+tid+"?wait=10000", nil, &st); err != nil {
			t.Errorf("parked status poll: %v", err)
		}
		status <- st
	}()
	await(t, "the status poll to reach the scheduler", f.arrived)
	start = time.Now()
	var st TaskStatus
	f.must(http.MethodPost, "/tasks/"+tid+"/result", ResultReport{WorkerID: wid, Record: record("ok.o")}, &st)
	select {
	case st := <-status:
		if st.State != StateDone {
			t.Fatalf("parked status poll returned %q, want %q", st.State, StateDone)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked status poll not woken by the result")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("status returned %v after the result, want well under 1s", d)
	}
}

// TestSchedulerWakeOnDisconnect: a client that goes away releases its
// parked poll — the handler returns, nothing keeps waiting for it.
func TestSchedulerWakeOnDisconnect(t *testing.T) {
	f := newWakeFarm(t, NewScheduler())
	wid := f.register("w", 1)
	busy := f.register("busy", 1)
	tid := f.submit()
	if lt := f.lease(busy, 0); lt == nil || lt.ID != tid {
		t.Fatalf("lease: got %+v, want %s", lt, tid)
	}
	<-f.arrived
	<-f.returned

	for _, poll := range []struct{ method, path string }{
		{http.MethodPost, "/lease?worker=" + wid + "&wait=10000"},
		{http.MethodGet, "/tasks/" + tid + "?wait=10000"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		gone := make(chan error, 1)
		go func() {
			gone <- doJSON(ctx, f.hc, poll.method, f.url(poll.path), nil, nil)
		}()
		await(t, poll.path+" to reach the scheduler", f.arrived)
		if poll.method == http.MethodPost {
			f.awaitParked(wid, 1)
		}
		cancel()
		if err := <-gone; err == nil {
			t.Fatalf("%s: cancelled poll returned a response", poll.path)
		}
		await(t, poll.path+"'s handler to return", f.returned)
	}
	f.awaitParked(wid, 0)
}

// TestSchedulerExpiryTimer: one status poll is parked and nothing else
// talks to the scheduler. The worker holding the task falls silent; the
// poll's own timer must expire it and fail the task (no worker is left
// to requeue to) when the heartbeat window closes, not at the poll's
// deadline.
func TestSchedulerExpiryTimer(t *testing.T) {
	sched := NewScheduler()
	sched.HeartbeatTimeout = 200 * time.Millisecond
	f := newWakeFarm(t, sched)
	wid := f.register("silent", 1)
	tid := f.submit()
	if lt := f.lease(wid, 0); lt == nil || lt.ID != tid {
		t.Fatalf("lease: got %+v, want %s", lt, tid)
	}
	lastBeat := time.Now()
	st := f.taskStatus(tid, 10*time.Second)
	if st.State != StateFailed {
		t.Fatalf("task on a dead worker: state %q, want %q", st.State, StateFailed)
	}
	if d := time.Since(lastBeat); d < 150*time.Millisecond || d > sched.HeartbeatTimeout+500*time.Millisecond {
		t.Errorf("dead worker's task failed after %v, want about the %v heartbeat timeout", d, sched.HeartbeatTimeout)
	}
}

// TestSchedulerExpiryTimerRequeuesToParkedLease: as above with a second
// worker whose only sign of life is a parked lease poll. A parked
// poll's timer expires the silent worker, the requeue wakes the parked
// lease, and the polling worker — silent for longer than the heartbeat
// window itself — is not expired: an open lease poll counts as alive.
func TestSchedulerExpiryTimerRequeuesToParkedLease(t *testing.T) {
	sched := NewScheduler()
	sched.HeartbeatTimeout = 200 * time.Millisecond
	f := newWakeFarm(t, sched)
	silent := f.register("silent", 1)
	tid := f.submit()
	if lt := f.lease(silent, 0); lt == nil || lt.ID != tid {
		t.Fatalf("lease: got %+v, want %s", lt, tid)
	}
	lastBeat := time.Now()
	patient := f.register("patient", 1)

	leased := make(chan *LeasedTask, 1)
	go func() {
		var resp LeaseResponse
		if err := f.do(http.MethodPost, "/lease?worker="+patient+"&wait=10000", nil, &resp); err != nil {
			t.Errorf("parked lease: %v", err)
		}
		leased <- resp.Task
	}()
	f.awaitParked(patient, 1)
	status := make(chan TaskStatus, 1)
	go func() {
		var st TaskStatus
		if err := f.do(http.MethodGet, "/tasks/"+tid+"?wait=10000", nil, &st); err != nil {
			t.Errorf("status poll: %v", err)
		}
		status <- st
	}()

	select {
	case got := <-leased:
		if got == nil || got.ID != tid {
			t.Fatalf("parked lease returned %+v, want the requeued task %s", got, tid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("requeued task never reached the parked lease")
	}
	if d := time.Since(lastBeat); d < 150*time.Millisecond || d > sched.HeartbeatTimeout+500*time.Millisecond {
		t.Errorf("task requeued after %v, want about the %v heartbeat timeout", d, sched.HeartbeatTimeout)
	}
	f.must(http.MethodPost, "/tasks/"+tid+"/result", ResultReport{WorkerID: patient, Record: record("ok.o")}, nil)
	if st := <-status; st.State != StateDone || st.Attempts != 2 {
		t.Errorf("status poll: state %q attempts %d, want done/2", st.State, st.Attempts)
	}
	if err := f.do(http.MethodPost, "/workers/"+silent+"/heartbeat", nil, nil); distrib.StatusCode(err) != http.StatusGone {
		t.Errorf("heartbeat of the silent worker: %v, want 410", err)
	}
}
