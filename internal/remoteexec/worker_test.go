package remoteexec

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/registry"
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
		td, err := PushTree(ctx, client, DefaultRepo, fsys)
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
		_, err := w.baseFS(ctx, DefaultRepo, treeA)
		aDone <- err
	}()
	<-aStarted
	_, err := w.baseFS(ctx, DefaultRepo, treeB)
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
			if _, err := w.baseFS(ctx, DefaultRepo, treeC); err != nil {
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
