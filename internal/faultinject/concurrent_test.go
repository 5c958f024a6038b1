package faultinject

import (
	"runtime"
	"testing"
	"time"

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

// TestPlanConcurrentUse drives every method of Plan that takes its lock
// beside an operation consulting the plan, as a chaos test reconfigures
// or reads a plan its stores and transports are drawing from. Meant for
// -race, which reports any method whose access to the schedule, the
// counter, the events or the generator is not under p.mu. The latency a
// Latency fault waits is read under the lock too (delay).
func TestPlanConcurrentUse(t *testing.T) {
	p := NewPlan(1).Rate(EIO, 1)
	next := func() { p.next("op", EIO) }
	for _, op := range []func(){
		func() { p.Rate(ShortWrite, 0.5) },
		func() { p.At(3, EIO) },
		func() { p.Burst(5, 2, EIO) },
		func() { p.Ops() },
		func() { p.Events() },
		func() { p.intn(10) },
		next,
	} {
		hammer(100, op, next)
	}
	hammer(100, func() { p.WithLatency(time.Millisecond) }, func() { p.delay() })
	if got := p.Ops(); got != 800 {
		t.Errorf("Ops = %d, want 800", got)
	}
	if got := len(p.Events()); got != 800 {
		t.Errorf("%d events, want one an operation (rate 1): 800", got)
	}
}
