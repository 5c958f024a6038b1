package remoteexec

import (
	"archive/tar"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/fsim"
	"comtainer/internal/registry"
	"comtainer/internal/tarfs"
	"comtainer/internal/toolchain"
)

// spyTransport counts the requests a client sends and, of them, the
// task submissions, and refuses blob traffic while told to.
type spyTransport struct {
	refuseBlobs atomic.Bool
	n, submits  atomic.Int64
}

func (s *spyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.n.Add(1)
	if s.refuseBlobs.Load() && strings.HasPrefix(req.URL.Path, "/v2/") {
		return nil, errors.New("connection refused")
	}
	if req.URL.Path == APIPrefix+"/tasks" {
		s.submits.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
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

// TestHostileTreeFailsTheTask: the blob plane is shared, so a tree is
// outside input even under its true digest. What decodes it is
// tarfs.Unmarshal, whose checks hold here: FetchTree returns an error
// and no FS, and a worker leased a task on such a tree reports it failed
// instead of executing on whatever part of the tree decoded.
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
	w := &Worker{Scheduler: f.ts.URL, Client: client, Platform: testPlatform, Registry: toolchain.GenericRegistry(toolchain.ISAx86)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx) // ends cancelled
	}()
	defer func() {
		cancel()
		<-done
	}()
	for len(sched.Status().Workers) == 0 {
		time.Sleep(time.Millisecond)
	}

	for _, c := range cases {
		td, err := client.PushBytes(ctx, DefaultRepo, c.blob)
		if err != nil {
			t.Fatal(err)
		}
		if fsys, err := FetchTree(ctx, client, td); err == nil || fsys != nil {
			t.Errorf("%s: FetchTree returned FS %v and error %v, want no FS and an error", c.name, fsys, err)
		}
		spec := testSpec()
		spec.BaseTree = td
		var sub SubmitResponse
		f.must(http.MethodPost, "/tasks", spec, &sub)
		st := f.taskStatus(sub.TaskID, 10*time.Second)
		if st.State != StateFailed || !strings.Contains(st.Error, "decoding tree") {
			t.Errorf("%s: task ended %s (%q), want failed on decoding its tree", c.name, st.State, st.Error)
		}
	}
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	if len(w.trees) != 0 {
		t.Errorf("the worker kept %d hostile trees", len(w.trees))
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
		_, err := w.baseFS(ctx, treeA)
		aDone <- err
	}()
	<-aStarted
	_, err := w.baseFS(ctx, treeB)
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
			if _, err := w.baseFS(ctx, treeC); err != nil {
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
// the snapshots of the most recent ones only, by size — but never drops
// one a running task still holds.
func TestIdleTreesAreBounded(t *testing.T) {
	// Three snapshots of 0.4 × the cap each: two fit, three do not. The
	// files of one snapshot share a buffer, so the test allocates 1 MiB.
	buf := make([]byte, 1<<20)
	session := func(name string) (digest.Digest, *fsim.FS) {
		fsys := fsim.New()
		for i := 0; i < maxIdleTreeBytes*2/5/len(buf); i++ {
			fsys.Add(&fsim.File{Path: "/" + name + "/f" + strconv.Itoa(i), Type: fsim.TypeRegular, Mode: 0o644, Data: buf})
		}
		return digest.FromString(name), fsys
	}
	// run is what executeTask does with a snapshot the worker already
	// fetched: pin, use, unpin.
	w := &Worker{}
	kept := func(td digest.Digest) bool {
		w.treeMu.Lock()
		defer w.treeMu.Unlock()
		return w.trees[td] != nil
	}
	run := func(td digest.Digest, fsys *fsim.FS) {
		if got := w.pinTree(td, fsys); got.TotalSize() != fsys.TotalSize() {
			t.Fatalf("pinned a snapshot of %d bytes, want %d", got.TotalSize(), fsys.TotalSize())
		}
		w.unpinTree(td)
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

	// A task holds a while three more sessions pass: a stays, and does
	// not count against the idle ones.
	if w.pinTree(a, nil) == nil {
		t.Fatal("a was kept and must pin")
	}
	run(b, bFS)
	run(c, cFS)
	run(d, dFS)
	if !kept(a) || kept(b) || !kept(c) || !kept(d) {
		t.Fatalf("with a held: kept a=%v b=%v c=%v d=%v, want a, c, d", kept(a), kept(b), kept(c), kept(d))
	}
	w.unpinTree(a)
	if !kept(a) || kept(c) || !kept(d) {
		t.Fatalf("after a's release: kept a=%v c=%v d=%v, want the least recent idle one (c) dropped", kept(a), kept(c), kept(d))
	}
	if len(w.trees) != w.idleTrees.Len() || w.idleTrees.Size() > maxIdleTreeBytes {
		t.Errorf("%d snapshots kept, %d idle weighing %d bytes, cap %d", len(w.trees), w.idleTrees.Len(), w.idleTrees.Size(), maxIdleTreeBytes)
	}
}

// recordingCache keeps the documents Put into a tier, in order. For
// one goroutine.
type recordingCache struct {
	actioncache.Cache
	puts [][]byte
}

func (c *recordingCache) Put(k digest.Digest, v []byte) error {
	c.puts = append(c.puts, v)
	return c.Cache.Put(k, v)
}

// TestWorkerAnswersFromSharedCache: a worker whose shared cache already
// holds a leased action publishes its record without executing it, and
// the record carries the inputs of the stored manifest — what the
// executor re-observes before it caches anything itself.
func TestWorkerAnswersFromSharedCache(t *testing.T) {
	ts := httptest.NewServer(registry.NewServer().Handler())
	defer ts.Close()
	client := distrib.NewClient(ts.URL)
	ctx := context.Background()

	fsys := fsim.New()
	fsys.WriteFile("/src/main.c", []byte("int main(){return 0;}\n"), 0o644)
	td, err := PushTree(ctx, client, fsys)
	if err != nil {
		t.Fatal(err)
	}
	task := &LeasedTask{ID: "t1", Spec: TaskSpec{
		Argv: []string{"gcc", "-O2", "-c", "main.c", "-o", "main.o"}, Cwd: "/src", BaseTree: td,
	}}
	disk, err := actioncache.NewDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := &recordingCache{Cache: disk}
	worker := func() *Worker {
		return &Worker{Client: client, Registry: toolchain.GenericRegistry(toolchain.ISAx86), Cache: shared}
	}

	executed, err := worker().executeTask(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.puts) != 2 {
		t.Fatalf("executing wrote %d documents through to the shared cache, want manifest and result", len(shared.puts))
	}
	replayed, err := worker().executeTask(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.puts) != 2 {
		t.Errorf("a worker executed (%d cache writes) an action the shared cache holds", len(shared.puts))
	}
	if replayed != executed {
		t.Errorf("replayed record %s differs from the executed one %s", replayed, executed)
	}
	rec, err := fetchResult(ctx, client, replayed)
	if err != nil {
		t.Fatal(err)
	}
	man, err := actioncache.DecodeManifest(shared.puts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Inputs) == 0 || !reflect.DeepEqual(rec.Inputs, man.Inputs) {
		t.Errorf("published inputs %+v, stored manifest %+v", rec.Inputs, man.Inputs)
	}
	if len(rec.Outputs) != 1 || rec.Outputs[0].Path != "/src/main.o" {
		t.Errorf("published outputs %+v, want /src/main.o", rec.Outputs)
	}
}

// TestReportRetriesUntilAcknowledged pins the result handshake's two
// ends. A 404 — the scheduler no longer knows the task — is final: one
// request, no resubmission. A burst of 503s and dropped connections is
// not: the worker resubmits until the scheduler acknowledges.
func TestReportRetriesUntilAcknowledged(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		switch r.URL.Path {
		case APIPrefix + "/tasks/forgotten/result":
			http.Error(w, "unknown task", http.StatusNotFound)
		case APIPrefix + "/tasks/t1/result":
			writeJSON(w, TaskStatus{ID: "t1", State: StateDone})
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
	if err := w.report(context.Background(), "t1", ResultReport{WorkerID: "w1"}); err != nil {
		t.Fatalf("report through a 503 and a dropped connection: %v", err)
	}
	if n, sent := posts.Load(), plan.Ops(); n != 1 || sent != 3 {
		t.Fatalf("%d requests sent, %d reached the scheduler; want 3 and 1", sent, n)
	}

	if err := w.report(context.Background(), "forgotten", ResultReport{WorkerID: "w1"}); err == nil {
		t.Fatal("report of a task the scheduler forgot returned nil")
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("a 404 was resubmitted: %d requests reached the scheduler, want 2 in all", n)
	}
}
