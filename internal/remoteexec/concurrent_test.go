package remoteexec

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/registry"
)

// hammer runs each op n times in a goroutine of its own, all at once,
// and waits for them. An op's goroutine synchronizes only through the
// mutex its op takes, so under -race an op that reads or writes shared
// state without its lock races with the others. Each goroutine yields
// after every op, so the goroutines interleave even on one CPU: runs in
// which one goroutine finished before another began reported nothing.
func hammer(n int, ops ...func()) {
	cachekit.Parallel(len(ops), 0, func(i int) error {
		for range n {
			ops[i]()
			runtime.Gosched()
		}
		return nil
	})
}

// TestWorkerTreesConcurrentUse: a worker's slots look up and keep base
// trees at once. The trees here are kept before they are asked for, so
// baseFS finds them without a fetch. Meant for -race, which reports a
// section whose access to the kept trees or their recency is not under
// w.treeMu.
func TestWorkerTreesConcurrentUse(t *testing.T) {
	w := &Worker{}
	tree := fsim.New()
	tree.WriteFile("/usr/lib/libm.so", []byte("m"), 0o644)
	chain := func(i int) []digest.Digest { return []digest.Digest{digest.FromString(fmt.Sprint("layer ", i%8))} }
	for i := range 8 {
		w.keepTree(chainKey(chain(i)), tree)
	}
	b := 0
	lookUp := func() {
		if _, err := w.baseFS(context.Background(), chain(b)); err != nil {
			t.Error(err)
		}
		b++
	}
	keep := func() func() {
		k := 0
		return func() { w.keepTree(chainKey(chain(k)), tree); k++ }
	}
	hammer(100, lookUp, keep())
	hammer(100, keep(), keep())
}

// TestExecutorConcurrentUse: a rebuild's workers offer commands while
// the session's base is prepared. A PrepareLayers over too many layers
// clears the base and fails without a push; one over none pushes its
// top layer to a registry first. Meant for -race, which reports a
// section whose access to the base is not under e.mu.
func TestExecutorConcurrentUse(t *testing.T) {
	ts := httptest.NewServer(registry.NewServer().Handler())
	defer ts.Close()
	e := &Executor{Client: distrib.NewClient(ts.URL)}
	top := fsim.New()
	top.WriteFile("/src/a.c", []byte("int a;"), 0o644)
	ctx := context.Background()
	clear := func() {
		if err := e.PrepareLayers(ctx, nil, make([]digest.Digest, MaxBaseLayers), top); err == nil {
			t.Error("PrepareLayers took more than MaxBaseLayers layers")
		}
	}
	offer := func() {
		if res, err := e.ExecuteContext(ctx, []string{"cc", "-c", "a.c"}, "/src", nil); res != nil || err != nil {
			t.Errorf("with no base: %v, %v; want a local run", res, err)
		}
	}
	prepare := func() {
		if err := e.PrepareLayers(ctx, nil, nil, top); err != nil {
			t.Error(err)
		}
	}
	hammer(100, offer, clear)
	// A push takes far longer than a clear: clears run until the last
	// push is in, so one always falls inside a push.
	pushed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-pushed:
				return
			default:
				clear()
				runtime.Gosched()
			}
		}
	}()
	for range 10 {
		prepare()
	}
	close(pushed)
	wg.Wait()
}
