package fleet

import (
	"runtime"
	"testing"

	"comtainer/internal/cachekit"
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

// TestShardGroupConcurrentUse: the proxy's handlers read the leader and
// promote past a failed one while Watch notes heartbeats. Meant for
// -race, which reports a method whose access to the leader or the miss
// count is not under g.mu.
func TestShardGroupConcurrentUse(t *testing.T) {
	g, err := NewShardGroup("g", "http://a", "http://b", "http://c")
	if err != nil {
		t.Fatal(err)
	}
	promote := func() { g.promoteFrom(g.Leader()) }
	for _, op := range []func(){
		func() { g.Leader() },
		func() { g.Replicas() },
		func() { g.noteMiss(g.Leader()) },
		func() { g.noteBeat(g.Leader()) },
		promote,
	} {
		hammer(100, op, promote)
	}
	hammer(100, func() { g.noteBeat(g.Leader()) }, func() { g.noteMiss(g.Leader()) })
	if got := len(g.Replicas()); got != 3 {
		t.Errorf("%d replicas, want 3", got)
	}
}
