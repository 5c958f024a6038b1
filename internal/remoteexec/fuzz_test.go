package remoteexec

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzSchedulerRequests: every farm route takes JSON from outside the
// process. A sequence of requests, each answered on Scheduler.Handler
// with ?wait=0, never panics; every answer is a status its route
// documents; and after each the scheduler's books balance — every task
// it keeps is queued (once, in the queue), running (held by the worker
// it names) or one of at most keptTerminalTasks finished ones, Status
// counts the same, and no worker holds more tasks than it has slots.
//
// An input is lines, one request each: an op letter, an ID character
// (its value mod 16 is n), then the body. W registers a worker, H beats
// for worker w<n>, L leases for it, S submits a task, G polls task t<n>,
// R reports it, F reads the farm status. Registrations and submissions
// share one ID sequence from 1.
func FuzzSchedulerRequests(f *testing.F) {
	routes := map[byte]struct {
		method, path string
		statuses     []int
	}{
		'W': {http.MethodPost, "/workers", []int{200, 400, 413}},
		'H': {http.MethodPost, "/workers/w<n>/heartbeat", []int{200, 410}},
		'L': {http.MethodPost, "/lease?worker=w<n>&wait=0", []int{200, 410}},
		'S': {http.MethodPost, "/tasks", []int{200, 400, 413}},
		'G': {http.MethodGet, "/tasks/t<n>?wait=0", []int{200, 404}},
		'R': {http.MethodPost, "/tasks/t<n>/result", []int{200, 400, 404, 413}},
		'F': {http.MethodGet, "/status", []int{200}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScheduler()
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) < 2 {
				continue
			}
			route, ok := routes[line[0]]
			if !ok {
				continue
			}
			path := APIPrefix + strings.Replace(route.path, "<n>", strconv.Itoa(int(line[1])%16), 1)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(route.method, path, bytes.NewReader(line[2:])))
			if !slices.Contains(route.statuses, rec.Code) {
				t.Fatalf("%s %s %q: %d %q, want one of %v", route.method, path, line[2:], rec.Code, rec.Body, route.statuses)
			}
			checkBooks(t, s)
		}
	})
}

// checkBooks fails t unless s's task and worker records agree with each
// other and with s.Status().
func checkBooks(t *testing.T, s *Scheduler) {
	t.Helper()
	st := s.Status()
	s.mu.Lock()
	defer s.mu.Unlock()
	var queued, running, finished int
	for id, task := range s.tasks {
		switch task.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
			if w := s.workers[task.worker]; w == nil || !w.inflight[id] {
				t.Fatalf("task %s runs on %q, which does not hold it", id, task.worker)
			}
		default:
			finished++
		}
	}
	if queued != len(s.queue) || queued != st.Queued || running != st.Running ||
		finished != len(s.terminal) || finished > keptTerminalTasks || queued+running+finished != len(s.tasks) {
		t.Fatalf("%d tasks kept: %d queued (queue %v), %d running, %d finished (%d listed); status %+v",
			len(s.tasks), queued, s.queue, running, finished, len(s.terminal), st)
	}
	for _, w := range s.workers {
		if len(w.inflight) > w.slots {
			t.Fatalf("worker %s holds %d tasks in %d slots", w.id, len(w.inflight), w.slots)
		}
	}
}
