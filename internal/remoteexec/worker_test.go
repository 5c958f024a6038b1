package remoteexec

import (
	"archive/tar"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
	"comtainer/internal/tarfs"
	"comtainer/internal/toolchain"
)

// spyTransport counts the requests a client sends — all of them, and
// by what they are for — and the leases granted to it, and refuses
// blob traffic while told to.
type spyTransport struct {
	refuseBlobs                               atomic.Bool
	n, blobs, submits, polls, reports, grants atomic.Int64
}

// traffic is what a spyTransport counted.
type traffic struct{ n, blobs, submits, polls, reports, grants int64 }

func (s *spyTransport) seen() traffic {
	return traffic{s.n.Load(), s.blobs.Load(), s.submits.Load(), s.polls.Load(), s.reports.Load(), s.grants.Load()}
}

// since returns what s counted after it had counted was.
func (s *spyTransport) since(was traffic) traffic {
	now := s.seen()
	return traffic{now.n - was.n, now.blobs - was.blobs, now.submits - was.submits,
		now.polls - was.polls, now.reports - was.reports, now.grants - was.grants}
}

func (s *spyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.n.Add(1)
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/v2/"):
		s.blobs.Add(1)
		if s.refuseBlobs.Load() {
			return nil, errors.New("connection refused")
		}
	case p == APIPrefix+"/tasks":
		s.submits.Add(1)
	case strings.HasSuffix(p, "/result"):
		s.reports.Add(1)
	case strings.HasPrefix(p, APIPrefix+"/tasks/"):
		s.polls.Add(1)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || p != APIPrefix+"/lease" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var lr LeaseResponse
	if json.Unmarshal(body, &lr) == nil && lr.Task != nil {
		s.grants.Add(1)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// runWorker runs w against the farm sched serves until the returned
// stop is called or the test ends, and returns once sched has
// registered it. stop cancels the worker, waits for Run to return, and
// takes the census.
func runWorker(t *testing.T, sched *Scheduler, w *Worker) (stop func()) {
	t.Helper()
	before := len(sched.Status().Workers)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx) // ends cancelled
	}()
	stop = sync.OnceFunc(func() {
		cancel()
		<-done
		requireNoFarmGoroutines(t)
	})
	t.Cleanup(stop)
	for len(sched.Status().Workers) == before {
		time.Sleep(time.Millisecond)
	}
	return stop
}

// TestActionIsOneMessageEachWay: once a session's tree is on the
// worker, a remote action is one submit and its status polls from the
// executor, one granted lease and one report from the worker, and no
// blob request from either — whatever the action carries. Its
// dependencies' outputs ride in the task; its record rides in the
// report and back in the final status, and is the record the runner
// makes of the same action run locally, inputs and bytes included.
func TestActionIsOneMessageEachWay(t *testing.T) {
	base := fsim.New()
	base.WriteFile("/src/main.c", []byte("int main(){return 0;}\n"), 0o644)
	compile := func(src, out string, extra ...string) []string {
		return append([]string{"gcc", "-O2", "-c", src, "-o", out}, extra...)
	}
	cases := []struct {
		name    string
		argv    []string
		overlay []actioncache.Output
		minOut  int // bytes of the record's one output, at least
	}{
		{"no overlay", compile("main.c", "main.o"), nil, 1},
		// gen.c exists only in the overlay: the action fails unless it
		// arrived.
		{"a 3-file overlay", compile("gen.c", "gen.o", "-I", "include"), []actioncache.Output{
			{Path: "/src/gen.c", Mode: 0o644, Data: []byte("#include \"gen.h\"\nint gen(void){return GEN;}\n")},
			{Path: "/src/include/gen.h", Mode: 0o644, Data: []byte("#define GEN 1\n")},
			{Path: "/src/lib/libgen.a", Mode: 0o644, Data: []byte("!<arch>\n\x00\xff")},
		}, 1},
		{"a 1 MiB output", compile("main.c", "big.o", "-DBIG="+strings.Repeat("x", 1<<20)), nil, 1 << 20},
	}
	reg := toolchain.GenericRegistry(toolchain.ISAx86)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched := NewScheduler()
			f := newFarm(t, sched)
			execSpy, workerSpy := &spyTransport{}, &spyTransport{}
			e := &Executor{Scheduler: f.ts.URL, Client: distrib.NewClient(f.ts.URL), Platform: testPlatform}
			e.Client.HTTP = &http.Client{Transport: execSpy}
			w := &Worker{Scheduler: f.ts.URL, Client: distrib.NewClient(f.ts.URL), Platform: testPlatform, Registry: reg}
			w.Client.HTTP = &http.Client{Transport: workerSpy}
			stop := runWorker(t, sched, w)
			ctx := context.Background()

			if err := e.PrepareContext(ctx, base); err != nil {
				t.Fatal(err)
			}
			// The worker fetches the session's tree for its first task.
			if res, _ := e.ExecuteContext(ctx, compile("main.c", "warm.o"), "/src", nil); res == nil {
				t.Fatal("the first action ran locally")
			}
			execWas, workerWas := execSpy.seen(), workerSpy.seen()
			res, err := e.ExecuteContext(ctx, c.argv, "/src", c.overlay)
			stop()
			if err != nil || res == nil {
				t.Fatalf("ExecuteContext = (%v, %v), want the worker's record", res, err)
			}
			ex, wk := execSpy.since(execWas), workerSpy.since(workerWas)
			if ex.blobs != 0 || ex.submits != 1 || ex.polls < 1 || ex.n != ex.submits+ex.polls {
				t.Errorf("the executor sent %+v; want a submit and its status polls only", ex)
			}
			if wk.blobs != 0 || wk.grants != 1 || wk.reports != 1 {
				t.Errorf("the worker sent %+v; want no blob request, one granted lease, one report", wk)
			}

			local := base.Clone()
			for _, out := range c.overlay {
				local.WriteFile(out.Path, out.Data, fs.FileMode(out.Mode))
			}
			runner := toolchain.NewRunner(local, reg)
			runner.Memo = actioncache.NewMemoizer(nil)
			runner.Cwd = "/src"
			if err := runner.Run(c.argv); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, runner.LastResult) {
				t.Errorf("the record did not survive the wire:\n got %.300v\nwant %.300v", res, runner.LastResult)
			}
			if len(res.Inputs) == 0 || len(res.Outputs) != 1 || len(res.Outputs[0].Data) < c.minOut {
				t.Errorf("record of %d inputs and %d outputs, want inputs and one output of at least %d bytes", len(res.Inputs), len(res.Outputs), c.minOut)
			}
		})
	}
}

// TestBusyWorkerStaysAlive: a worker's open lease poll is its one sign
// of life, and it keeps one open while its only slot is busy. An action
// that runs for more than twice the worker timeout, with no other
// worker and no traffic but the executor's, is not expired: it ends on
// its first attempt and the executor gets the worker's record.
func TestBusyWorkerStaysAlive(t *testing.T) {
	sched := NewScheduler()
	sched.WorkerTimeout = 200 * time.Millisecond
	f := newFarm(t, sched)
	runWorker(t, sched, &Worker{
		Scheduler: f.ts.URL, Client: distrib.NewClient(f.ts.URL), Slots: 1, Platform: testPlatform,
		Registry: toolchain.GenericRegistry(toolchain.ISAx86), ExecDelay: 5 * sched.WorkerTimeout / 2,
	})
	e := &Executor{Scheduler: f.ts.URL, Client: distrib.NewClient(f.ts.URL), Platform: testPlatform}
	ctx := context.Background()
	base := fsim.New()
	base.WriteFile("/src/main.c", []byte("int main(){return 0;}\n"), 0o644)
	if err := e.PrepareContext(ctx, base); err != nil {
		t.Fatal(err)
	}

	res, err := e.ExecuteContext(ctx, []string{"gcc", "-O2", "-c", "main.c", "-o", "main.o"}, "/src", nil)
	if err != nil || res == nil || len(res.Outputs) != 1 {
		t.Fatalf("ExecuteContext = (%v, %v), want the worker's record of one output", res, err)
	}
	if farm := sched.Status(); len(farm.Workers) != 1 || farm.Done != 1 || farm.Failed != 0 {
		t.Errorf("farm status %+v, want the worker still registered and one task done", farm)
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	for id, task := range sched.tasks {
		if task.state != StateDone || task.attempts != 1 {
			t.Errorf("task %s ended %s after %d attempts, want done after 1", id, task.state, task.attempts)
		}
	}
}

// stuckReports holds every result report for two seconds, whatever its
// request's context says, then drops it; all else goes through.
type stuckReports struct{ held chan string }

func (s stuckReports) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/result") {
		return http.DefaultTransport.RoundTrip(req)
	}
	select {
	case s.held <- req.URL.Path:
	default:
	}
	time.Sleep(2 * time.Second)
	return nil, errors.New("report held, then dropped")
}

// TestStoppedWorkerJoinsItsTasks: Run returns only once every task it
// started has ended. A worker stopped while one of its reports is stuck
// on the wire for longer than the census waits leaves no goroutine
// behind once Run has returned.
func TestStoppedWorkerJoinsItsTasks(t *testing.T) {
	sched := NewScheduler()
	f := newFarm(t, sched)
	held := make(chan string, 1)
	w := &Worker{Scheduler: f.ts.URL, Client: distrib.NewClient(f.ts.URL), Platform: testPlatform}
	w.Client.HTTP = &http.Client{Transport: stuckReports{held}}
	stop := runWorker(t, sched, w)
	f.submit() // no base tree: the task fails, and its failure is reported
	await(t, "the worker's report", held)
	stop()
}

// cannedFarm answers a worker from memory, with no connection: its
// registration, then a lease granting task t1; the next lease request
// stops the worker. Any other request fails.
type cannedFarm struct {
	leases int
	stop   context.CancelFunc
}

func (f *cannedFarm) RoundTrip(req *http.Request) (*http.Response, error) {
	var reply any
	switch {
	case strings.HasSuffix(req.URL.Path, "/workers"):
		reply = RegisterResponse{WorkerID: "w1"}
	case strings.HasSuffix(req.URL.Path, "/lease") && f.leases == 0:
		f.leases++
		reply = LeaseResponse{Task: &LeasedTask{ID: "t1"}}
	case strings.HasSuffix(req.URL.Path, "/lease"):
		f.stop()
		return nil, context.Canceled
	default:
		return nil, errors.New("canned farm: no such route")
	}
	b, err := json.Marshal(reply)
	if err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(b)), ContentLength: int64(len(b)), Request: req}, nil
}

// TestWorkerStoppedAtAGrantJoinsItsTask: a worker stopped right after a
// lease granted it a task, before the task's goroutine has run at all,
// still joins that goroutine: Run counts the task before starting it.
// On one P, with a farm that answers from memory, nothing lets the
// task's goroutine run before Run returns unless Run waits for it.
func TestWorkerStoppedAtAGrantJoinsItsTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Scheduler: "http://farm.invalid", Client: distrib.NewClient("http://farm.invalid"), Platform: testPlatform}
	w.Client.HTTP = &http.Client{Transport: &cannedFarm{stop: cancel}}
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want it cancelled", err)
	}
	if left := faultinject.Survivors("comtainer/internal/remoteexec.(*Worker).Run", 0); len(left) > 0 {
		t.Fatalf("Run returned before %d of its task goroutines ended:\n\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// TestTreeIsOneBlob: a session tree crosses the wire as one layer blob,
// so what PushTree and FetchTree cost in requests does not depend on
// what the tree holds, and every shape a rebuild file system takes
// survives the round trip.
func TestTreeIsOneBlob(t *testing.T) {
	cases := []struct {
		name  string
		build func(*fsim.FS)
	}{
		{"the empty FS", func(*fsim.FS) {}},
		{"one file", func(fsys *fsim.FS) { fsys.WriteFile("/src/main.c", []byte("int main(){}\n"), 0o644) }},
		{"100 files", func(fsys *fsim.FS) {
			for i := 0; i < 100; i++ {
				fsys.WriteFile(fmt.Sprintf("/src/f%d.c", i), []byte(fmt.Sprintf("int f%d;\n", i)), 0o644)
			}
		}},
		{"every shape", func(fsys *fsim.FS) {
			_ = fsys.MkdirAll("/var/empty", 0o700) // nothing in a fresh FS is in the way
			fsys.WriteFile("/usr/bin/cc", []byte("#!/bin/sh\n"), 0o755)
			fsys.Symlink("usr/lib", "/lib")
			fsys.WriteFile("/usr/lib/libc.so", []byte("libc"), 0o644)
			fsys.WriteFile("/usr/lib/x86_64/libm.so", []byte("libm"), 0o644)
			fsys.WriteFile("/etc/"+fsim.WhiteoutPrefix+"gone", nil, 0o644)
			fsys.WriteFile("/etc/"+fsim.OpaqueWhiteout, nil, 0o644)
			fsys.WriteFile("/src/a.h", []byte("same bytes"), 0o644)
			fsys.WriteFile("/src/b.h", []byte("same bytes"), 0o600)
		}},
	}
	var wantPush, wantFetch int64
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(registry.NewServer().Handler())
			defer ts.Close()
			spy := &spyTransport{}
			client := distrib.NewClient(ts.URL)
			client.HTTP = &http.Client{Transport: spy}
			fsys := fsim.New()
			c.build(fsys)

			td, err := PushTree(context.Background(), client, fsys)
			if err != nil {
				t.Fatal(err)
			}
			push := spy.n.Load()
			got, err := FetchTree(context.Background(), client, td)
			if err != nil {
				t.Fatal(err)
			}
			fetch := spy.n.Load() - push
			if !got.Equal(fsys) {
				t.Errorf("fetched %v, pushed %v", got.Paths(), fsys.Paths())
			}
			if i == 0 {
				wantPush, wantFetch = push, fetch
			}
			if push != wantPush || fetch != wantFetch {
				t.Errorf("%d requests to push and %d to fetch; %s took %d and %d", push, fetch, cases[0].name, wantPush, wantFetch)
			}
		})
	}
}

// rawTar builds an archive of the given entries in the given order,
// names unchecked; every regular file holds "owned".
func rawTar(t *testing.T, hdrs ...tar.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, hdr := range hdrs {
		hdr.Mode, hdr.Size = 0o644, int64(len("owned"))
		if err := tw.WriteHeader(&hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte("owned")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileTreeFailsTheTask: the blob plane is shared, so a layer is
// outside input even under its true digest. What decodes it is
// tarfs.Unmarshal, whose checks hold here: FetchTree returns an error
// and no FS, and a worker leased a task on such a layer reports it
// failed instead of executing on whatever part of the tree decoded —
// whether the layer is the task's whole base or the second layer of a
// chain whose first is sound. No tree is kept for either. A task that
// names no base layer fails too, and one naming more than MaxBaseLayers
// is refused by the scheduler, by a worker before it fetches any layer
// and by an executor before it pushes any.
func TestHostileTreeFailsTheTask(t *testing.T) {
	reg := func(name string) tar.Header { return tar.Header{Name: name, Typeflag: tar.TypeReg} }
	whole := fsim.New()
	whole.WriteFile("/src/main.c", bytes.Repeat([]byte("int x;\n"), 400), 0o644)
	valid, err := tarfs.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"not a tar at all", bytes.Repeat([]byte("no archive here. "), 64)},
		{"an absolute entry name", rawTar(t, reg("/etc/passwd"))},
		{"a ../ escape", rawTar(t, reg("src/../../escape"))},
		{"an entry beneath a regular file", rawTar(t, reg("src/main.c"), reg("src/main.c/x"))},
		{"a truncated archive", valid[:len(valid)/2]},
	}

	sched := NewScheduler()
	sched.MaxAttempts = 1
	f := newFarm(t, sched)
	client := distrib.NewClient(f.ts.URL)
	spy := &spyTransport{}
	wc := distrib.NewClient(f.ts.URL)
	wc.HTTP = &http.Client{Transport: spy}
	w := &Worker{Scheduler: f.ts.URL, Client: wc, Platform: testPlatform, Registry: toolchain.GenericRegistry(toolchain.ISAx86)}
	runWorker(t, sched, w)
	ctx := context.Background()
	sound, err := client.PushBytes(ctx, DefaultRepo, valid)
	if err != nil {
		t.Fatal(err)
	}
	// fails submits a task on base and requires it to fail with an
	// error that says want.
	fails := func(name string, base []digest.Digest, want string) {
		t.Helper()
		spec := testSpec()
		spec.Base = base
		var sub SubmitResponse
		f.must(http.MethodPost, "/tasks", spec, &sub)
		st := f.taskStatus(sub.TaskID, 10*time.Second)
		if st.State != StateFailed || !strings.Contains(st.Error, want) {
			t.Errorf("%s: task ended %s (%q), want failed on %q", name, st.State, st.Error, want)
		}
	}

	for _, c := range cases {
		td, err := client.PushBytes(ctx, DefaultRepo, c.blob)
		if err != nil {
			t.Fatal(err)
		}
		if fsys, err := FetchTree(ctx, client, td); err == nil || fsys != nil {
			t.Errorf("%s: FetchTree returned FS %v and error %v, want no FS and an error", c.name, fsys, err)
		}
		fails(c.name, []digest.Digest{td}, "decoding tree")
		fails(c.name+", second in a chain", []digest.Digest{sound, td}, "decoding tree")
	}
	fails("no base layer", nil, "no base layer")

	long := make([]digest.Digest, MaxBaseLayers+1)
	for i := range long {
		long[i] = sound
	}
	spec := testSpec()
	spec.Base = long
	if err := f.do(http.MethodPost, "/tasks", spec, nil); distrib.StatusCode(err) != http.StatusBadRequest {
		t.Errorf("submitting a %d-layer base: %v, want a 400", len(long), err)
	}
	was := spy.seen()
	if fsys, err := w.baseFS(ctx, long); fsys != nil || err == nil || !strings.Contains(err.Error(), "more than") {
		t.Errorf("a worker's tree of a %d-layer base: FS %v and error %v, want no FS and a refusal", len(long), fsys, err)
	}
	if got := spy.since(was).blobs; got != 0 {
		t.Errorf("a worker refusing a %d-layer base sent %d blob requests, want none", len(long), got)
	}
	e := &Executor{Scheduler: f.ts.URL, Client: wc, Platform: testPlatform}
	was = spy.seen()
	if err := e.PrepareLayers(ctx, nil, long[:MaxBaseLayers], fsim.New()); err == nil {
		t.Errorf("PrepareLayers of %d lower layers and a session layer returned nil", MaxBaseLayers)
	}
	if got := spy.since(was).n; got != 0 {
		t.Errorf("an executor refusing a %d-layer base sent %d requests, want none", MaxBaseLayers+1, got)
	}
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	if len(w.trees) != 0 {
		t.Errorf("the worker kept %d trees of hostile chains", len(w.trees))
	}
}

// TestFailedPrepareForgetsEarlierTree: an executor whose second
// PrepareContext fails must decline every action — not submit it against
// the tree of the session before.
func TestFailedPrepareForgetsEarlierTree(t *testing.T) {
	f := newFarm(t, NewScheduler())
	spy := &spyTransport{}
	client := distrib.NewClient(f.ts.URL)
	client.HTTP = &http.Client{Transport: spy}
	client.RetryBackoff = time.Millisecond
	e := &Executor{Scheduler: f.ts.URL, Client: client, Platform: testPlatform}
	ctx := context.Background()

	first, second := fsim.New(), fsim.New()
	first.WriteFile("/src/main.c", []byte("int main(){return 1;}\n"), 0o644)
	second.WriteFile("/src/main.c", []byte("int main(){return 2;}\n"), 0o644)
	if err := e.PrepareContext(ctx, first); err != nil {
		t.Fatal(err)
	}
	spy.refuseBlobs.Store(true)
	if err := e.PrepareContext(ctx, second); err == nil {
		t.Fatal("PrepareContext through a transport that refuses returned nil")
	}
	res, err := e.ExecuteContext(ctx, []string{"cc", "-c", "main.c"}, "/src", nil)
	if res != nil || err != nil {
		t.Fatalf("ExecuteContext after a failed prepare returned (%v, %v), want (nil, nil)", res, err)
	}
	if st := e.Stats(); st.Local != 1 || st.Remote != 0 || spy.submits.Load() != 0 {
		t.Errorf("stats %s and %d submits sent, want one local action and no submit", st, spy.submits.Load())
	}
}

// gatedRegistry serves a registry whose blob GETs can be counted and,
// per digest, held until the test says so.
type gatedRegistry struct {
	inner http.Handler

	mu    sync.Mutex
	gates map[digest.Digest]func() // called (once per GET) before serving
	gets  map[digest.Digest]int
}

func (g *gatedRegistry) gate(d digest.Digest, fn func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gates[d] = fn
}

func (g *gatedRegistry) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if i := strings.LastIndex(r.URL.Path, "/blobs/"); i >= 0 && r.Method == http.MethodGet {
		d := digest.Digest(r.URL.Path[i+len("/blobs/"):])
		g.mu.Lock()
		g.gets[d]++
		gate := g.gates[d]
		g.mu.Unlock()
		if gate != nil {
			gate()
		}
	}
	g.inner.ServeHTTP(w, r)
}

// TestBaseFSFetchDiscipline: the worker's snapshot memo must not
// serialise unrelated downloads — a fetch of tree B completes while a
// fetch of tree A is stuck on the wire — yet any number of slots asking
// for the same tree download it once.
func TestBaseFSFetchDiscipline(t *testing.T) {
	g := &gatedRegistry{
		inner: registry.NewServer().Handler(),
		gates: map[digest.Digest]func(){},
		gets:  map[digest.Digest]int{},
	}
	ts := httptest.NewServer(g)
	defer ts.Close()
	client := distrib.NewClient(ts.URL)
	ctx := context.Background()

	push := func(name string) digest.Digest {
		t.Helper()
		fsys := fsim.New()
		fsys.WriteFile("/common/libc.so", []byte("shared by every snapshot"), 0o644)
		fsys.WriteFile("/src/"+name, []byte("only in "+name), 0o644)
		td, err := PushTree(ctx, client, fsys)
		if err != nil {
			t.Fatal(err)
		}
		return td
	}
	treeA, treeB, treeC := push("a"), push("b"), push("c")
	w := &Worker{Client: client}

	// A's tree is held on the wire until B has been fetched.
	aStarted, bDone := make(chan struct{}), make(chan struct{})
	g.gate(treeA, func() {
		close(aStarted)
		select {
		case <-bDone:
		case <-time.After(10 * time.Second):
			t.Error("tree B was not fetched while tree A's download was in flight")
		}
	})
	aDone := make(chan error, 1)
	go func() {
		_, err := w.baseFS(ctx, []digest.Digest{treeA})
		aDone <- err
	}()
	<-aStarted
	_, err := w.baseFS(ctx, []digest.Digest{treeB})
	close(bDone)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}

	// Many slots, one tree: its blob crosses the wire once. The
	// download is held until every caller is under way (plus a beat to
	// join); a caller later still finds the memo.
	const slots = 8
	var launched sync.WaitGroup
	launched.Add(slots)
	g.gate(treeC, func() {
		launched.Wait()
		time.Sleep(20 * time.Millisecond)
	})
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			launched.Done()
			if _, err := w.baseFS(ctx, []digest.Digest{treeC}); err != nil {
				t.Error(err)
				return
			}
			served.Add(1)
		}()
	}
	wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gets[treeC] != 1 || served.Load() != slots {
		t.Fatalf("tree C fetched %d times for %d callers (%d served), want once", g.gets[treeC], slots, served.Load())
	}
}

// TestIdleTreesAreBounded: a worker serving session after session keeps
// the snapshots of the most recently used ones only, by size.
func TestIdleTreesAreBounded(t *testing.T) {
	// Three snapshots of 0.4 × the cap each: two fit, three do not. The
	// files of one snapshot share a buffer, so the test allocates 1 MiB.
	buf := make([]byte, 1<<20)
	session := func(name string) ([]digest.Digest, *fsim.FS) {
		fsys := fsim.New()
		for i := 0; i < maxIdleTreeBytes*2/5/len(buf); i++ {
			fsys.Add(&fsim.File{Path: "/" + name + "/f" + strconv.Itoa(i), Type: fsim.TypeRegular, Mode: 0o644, Data: buf})
		}
		return []digest.Digest{digest.FromString(name)}, fsys
	}
	w := &Worker{}
	kept := func(chain []digest.Digest) bool {
		w.treeMu.Lock()
		defer w.treeMu.Unlock()
		return w.trees[chainKey(chain)] != nil
	}
	// run is what a task does with its session's snapshot: baseFS finds
	// a kept one; one that is not kept is fetched, which keepTree stands
	// in for.
	run := func(chain []digest.Digest, fsys *fsim.FS) {
		if !kept(chain) {
			w.keepTree(chainKey(chain), fsys)
			return
		}
		got, err := w.baseFS(context.Background(), chain)
		if err != nil || got.TotalSize() != fsys.TotalSize() {
			t.Fatalf("baseFS of a kept snapshot = (%d bytes, %v), want %d bytes", got.TotalSize(), err, fsys.TotalSize())
		}
	}
	a, aFS := session("a")
	b, bFS := session("b")
	c, cFS := session("c")
	d, dFS := session("d")

	run(a, aFS)
	run(b, bFS)
	if !kept(a) || !kept(b) {
		t.Fatal("two sessions' snapshots fit the cap, both must be kept")
	}
	run(a, aFS) // a is now the more recent of the two
	run(c, cFS)
	if kept(b) || !kept(a) || !kept(c) {
		t.Fatalf("after a third session: kept a=%v b=%v c=%v, want the least recent (b) dropped", kept(a), kept(b), kept(c))
	}
	run(d, dFS)
	if kept(a) || !kept(c) || !kept(d) {
		t.Fatalf("after a fourth session: kept a=%v c=%v d=%v, want the least recent (a) dropped", kept(a), kept(c), kept(d))
	}
	if len(w.trees) != w.treeLRU.Len() || w.treeLRU.Size() > maxIdleTreeBytes {
		t.Errorf("%d snapshots kept, %d indexed weighing %d bytes, cap %d", len(w.trees), w.treeLRU.Len(), w.treeLRU.Size(), maxIdleTreeBytes)
	}
}

// TestReportRetriesUntilAcknowledged pins the result handshake's ends.
// A 404 — the scheduler no longer knows the task — is final: one
// request, no resubmission. A burst of 503s and dropped connections is
// not, however long: the worker resubmits until the scheduler
// acknowledges. A report refused for good goes once more as the
// task's error.
func TestReportRetriesUntilAcknowledged(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		var rep ResultReport
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			t.Errorf("report body: %v", err)
		}
		switch r.URL.Path {
		case APIPrefix + "/tasks/forgotten/result":
			http.Error(w, "unknown task", http.StatusNotFound)
		case APIPrefix + "/tasks/t1/result", APIPrefix + "/tasks/t2/result":
			writeJSON(w, TaskStatus{ID: "t1", State: StateDone})
		case APIPrefix + "/tasks/huge/result":
			if rep.Record != nil {
				http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
				return
			}
			if !strings.Contains(rep.Error, "413") {
				t.Errorf("a refused report was resent as error %q, want the refusal", rep.Error)
			}
			writeJSON(w, TaskStatus{ID: "huge", State: StateQueued})
		default:
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
	}))
	defer ts.Close()

	// Request 1 is answered 503 before it leaves, 2 loses its
	// connection, 3 goes through.
	plan := faultinject.NewPlan(1).At(1, faultinject.HTTP500).At(2, faultinject.Drop)
	client := distrib.NewClient(ts.URL)
	client.RetryBackoff = time.Millisecond
	client.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}
	w := &Worker{Scheduler: ts.URL, Client: client}
	if err := w.report(context.Background(), "w1", "t1", nil, nil); err != nil {
		t.Fatalf("report through a 503 and a dropped connection: %v", err)
	}
	if n, sent := posts.Load(), plan.Ops(); n != 1 || sent != 3 {
		t.Fatalf("%d requests sent, %d reached the scheduler; want 3 and 1", sent, n)
	}

	if err := w.report(context.Background(), "w1", "forgotten", nil, nil); err == nil {
		t.Fatal("report of a task the scheduler forgot returned nil")
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("a 404 was resubmitted: %d requests reached the scheduler, want 2 in all", n)
	}

	// Six dropped connections in a row outlast one round of the
	// client's budget (3 retries, so 4 attempts); the seventh request
	// goes through.
	burst := faultinject.NewPlan(1)
	for n := int64(1); n <= 6; n++ {
		burst.At(n, faultinject.Drop)
	}
	client.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, burst)}
	if err := w.report(context.Background(), "w1", "t2", nil, nil); err != nil {
		t.Fatalf("report through 6 dropped connections: %v", err)
	}
	if n, sent := posts.Load(), burst.Ops(); n != 3 || sent != 7 {
		t.Fatalf("%d requests sent, %d reached the scheduler in all; want 7 and 3", sent, n)
	}

	// A 413 is not retried; the report goes once more as an error.
	client.HTTP = nil
	if err := w.report(context.Background(), "w1", "huge", record("big.o"), nil); err != nil {
		t.Fatalf("report refused with 413: %v", err)
	}
	if n := posts.Load(); n != 5 {
		t.Fatalf("%d requests reached the scheduler in all, want 5: the refused report and its error", n)
	}
}

// dropReports drops the first n result reports before they leave;
// everything else goes through.
type dropReports struct{ n atomic.Int64 }

func (d *dropReports) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/result") && d.n.Add(-1) >= 0 {
		return nil, errors.New("report dropped")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestLostReportsDoNotStrandTheTask: a worker whose reports keep being
// lost, longer than one round of the client's retry budget, resubmits
// until one arrives. The task ends done on its first attempt, which
// frees the worker's one slot for the next task.
func TestLostReportsDoNotStrandTheTask(t *testing.T) {
	sched := NewScheduler()
	f := newFarm(t, sched)
	w := &Worker{Scheduler: f.ts.URL, Client: distrib.NewClient(f.ts.URL), Slots: 1, Platform: testPlatform,
		Registry: toolchain.GenericRegistry(toolchain.ISAx86)}
	drops := &dropReports{}
	drops.n.Store(6)
	w.Client.HTTP = &http.Client{Transport: drops}
	runWorker(t, sched, w)
	e := &Executor{Scheduler: f.ts.URL, Client: distrib.NewClient(f.ts.URL), Platform: testPlatform}
	// A stranded task would hold the executor for DefaultExecTimeout.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	base := fsim.New()
	base.WriteFile("/src/main.c", []byte("int main(){return 0;}\n"), 0o644)
	if err := e.PrepareContext(ctx, base); err != nil {
		t.Fatal(err)
	}

	for _, out := range []string{"a.o", "b.o"} {
		res, err := e.ExecuteContext(ctx, []string{"gcc", "-O2", "-c", "main.c", "-o", out}, "/src", nil)
		if err != nil || res == nil {
			t.Fatalf("ExecuteContext for %s = (%v, %v), want the worker's record", out, res, err)
		}
	}
	if left := drops.n.Load(); left != -2 {
		t.Errorf("the worker sent %d reports, want 6 dropped and 2 delivered", 6-left)
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	for id, task := range sched.tasks {
		if task.state != StateDone || task.attempts != 1 {
			t.Errorf("task %s ended %s after %d attempts, want done after 1", id, task.state, task.attempts)
		}
	}
}

// blobLog counts a registry's blob requests by method and digest: a
// GET or HEAD by the digest in its path, an upload by its ?digest=.
type blobLog struct {
	inner http.Handler
	mu    sync.Mutex
	n     map[string]int // "<method> <digest>"
}

func (l *blobLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d := r.URL.Query().Get("digest")
	if i := strings.LastIndex(r.URL.Path, "/blobs/"); i >= 0 && d == "" {
		d = r.URL.Path[i+len("/blobs/"):]
	}
	l.mu.Lock()
	l.n[r.Method+" "+d]++
	l.mu.Unlock()
	l.inner.ServeHTTP(w, r)
}

// since returns how many requests of method for each of ds l counted
// beyond was.
func (l *blobLog) since(was map[string]int, method string, ds ...digest.Digest) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = l.n[method+" "+string(d)] - was[method+" "+string(d)]
	}
	return out
}

func (l *blobLog) snapshot() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.n)
}

// TestSecondSessionShipsOnlyItsLayer: a session's lower layers go up
// as the executor's store holds them and are kept by each worker, so a
// second session on the same lower layer costs, for that layer, one
// HEAD and nothing else — no upload, no fetch — and for its own layer
// one upload and one GET per worker that runs a task of it.
func TestSecondSessionShipsOnlyItsLayer(t *testing.T) {
	sched := NewScheduler()
	log := &blobLog{inner: registry.NewServer().Handler(), n: map[string]int{}}
	mux := http.NewServeMux()
	mux.Handle(APIPrefix+"/", sched.Handler())
	mux.Handle("/", log)
	ts := httptest.NewServer(mux)
	// Two workers, stopped together before the census: runWorker's
	// census would find the other one running.
	workers, cancel := context.WithCancel(context.Background())
	var running sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		running.Wait()
		ts.Close()
		requireNoFarmGoroutines(t)
	})
	reg := toolchain.GenericRegistry(toolchain.ISAx86)
	for range 2 {
		w := &Worker{Scheduler: ts.URL, Client: distrib.NewClient(ts.URL), Slots: 1,
			Platform: testPlatform, Registry: reg, ExecDelay: 300 * time.Millisecond}
		running.Add(1)
		go func() {
			defer running.Done()
			_ = w.Run(workers) // ends cancelled
		}()
	}
	for len(sched.Status().Workers) < 2 {
		time.Sleep(time.Millisecond)
	}

	store := oci.NewStore()
	sysenv := fsim.New()
	sysenv.WriteFile("/usr/include/stdio.h", []byte("int printf(const char *, ...);\n"), 0o644)
	desc, err := oci.PutLayer(store, sysenv)
	if err != nil {
		t.Fatal(err)
	}
	e := &Executor{Scheduler: ts.URL, Client: distrib.NewClient(ts.URL), Platform: testPlatform}
	ctx := context.Background()
	// session pushes one session layer over sysenv and runs two actions
	// at once, one on each worker, and returns that layer's digest.
	session := func(n int) digest.Digest {
		t.Helper()
		top := fsim.New()
		top.WriteFile("/src/main.c", []byte(fmt.Sprintf("#include <stdio.h>\nint main(){return %d;}\n", n)), 0o644)
		if err := e.PrepareLayers(ctx, store, []digest.Digest{desc.Digest}, top); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		base := e.base
		e.mu.Unlock()
		if len(base) != 2 || base[0] != desc.Digest {
			t.Fatalf("session base %v, want the lower layer %s and the session's", base, desc.Digest)
		}
		err := cachekit.Parallel(2, 0, func(i int) error {
			res, err := e.ExecuteContext(ctx, []string{"gcc", "-O2", "-c", "main.c", "-o", fmt.Sprintf("m%d.o", i)}, "/src", nil)
			if err == nil && res == nil {
				err = errors.New("the action ran locally")
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return base[1]
	}

	first := session(1)
	if got := log.since(nil, http.MethodGet, desc.Digest, first); got[0] != 2 || got[1] != 2 {
		t.Fatalf("first session: GETs of the lower and the session layer %v, want one per worker of each", got)
	}
	was := log.snapshot()
	second := session(2)
	head, post, get := log.since(was, http.MethodHead, desc.Digest, second), log.since(was, http.MethodPost, desc.Digest, second), log.since(was, http.MethodGet, desc.Digest, second)
	if head[0] != 1 || post[0] != 0 || get[0] != 0 {
		t.Errorf("second session, lower layer: %d HEAD, %d uploads, %d GETs; want 1, 0, 0", head[0], post[0], get[0])
	}
	if post[1] != 1 || get[1] != 2 {
		t.Errorf("second session, its own layer: %d uploads, %d GETs; want 1 and one per worker", post[1], get[1])
	}
	if st := e.Stats(); st.Remote != 4 || st.Local != 0 {
		t.Errorf("executor stats %s, want every action remote", st)
	}
}
