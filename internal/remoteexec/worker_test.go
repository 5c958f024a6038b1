package remoteexec

import (
	"context"
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
	"comtainer/internal/toolchain"
)

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

	// A's tree document is held on the wire until B has been fetched.
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

	// Many slots, one tree: its document crosses the wire once. The
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
		t.Fatalf("tree C document fetched %d times for %d callers (%d served), want once", g.gets[treeC], slots, served.Load())
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
