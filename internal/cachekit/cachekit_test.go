package cachekit

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// parked waits until n callers have joined key's in-flight call.
func parked[K comparable, V any](g *Flight[K, V], key K, n int) {
	for {
		g.mu.Lock()
		c := g.calls[key]
		joined := c != nil && c.waiters == n
		g.mu.Unlock()
		if joined {
			return
		}
		runtime.Gosched()
	}
}

// TestFlightRunsOnce: N goroutines on one key run fn once, and every
// one of them sees its value and its error.
func TestFlightRunsOnce(t *testing.T) {
	boom := errors.New("boom")
	for _, want := range []error{nil, boom} {
		var g Flight[string, int]
		var runs, shared atomic.Int64
		started, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		call := func() {
			defer wg.Done()
			v, sh, err := g.Do("k", func() (int, error) {
				runs.Add(1)
				close(started)
				<-release
				return 42, want
			})
			if v != 42 || err != want {
				t.Errorf("Do = (%d, %v), want (42, %v)", v, err, want)
			}
			if sh {
				shared.Add(1)
			}
		}
		const waiters = 15
		wg.Add(1 + waiters)
		go call()
		<-started
		for i := 0; i < waiters; i++ {
			go call()
		}
		parked(&g, "k", waiters)
		close(release)
		wg.Wait()
		if runs.Load() != 1 || shared.Load() != waiters {
			t.Errorf("err=%v: fn ran %d times, %d results shared; want 1 and %d", want, runs.Load(), shared.Load(), waiters)
		}
	}
}

// TestFlightCancelledWaiter: a waiter whose ctx is cancelled returns
// at once with ctx.Err() while the owner carries on to completion, and
// nothing — value or error — outlives the call: the next Do runs fn
// again.
func TestFlightCancelledWaiter(t *testing.T) {
	var g Flight[int, string]
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := g.DoContext(context.Background(), 7, func() (string, error) {
			close(started)
			<-release
			return "", boom
		})
		ownerDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := g.DoContext(ctx, 7, func() (string, error) {
			t.Error("waiter ran fn while the owner's call was in flight")
			return "", nil
		})
		waiterDone <- err
	}()
	parked(&g, 7, 1)
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	select {
	case err := <-ownerDone:
		t.Fatalf("owner returned %v before being released", err)
	default:
	}
	close(release)
	if err := <-ownerDone; err != boom {
		t.Fatalf("owner returned %v, want its own error", err)
	}

	v, shared, err := g.Do(7, func() (string, error) { return "fresh", nil })
	if v != "fresh" || shared || err != nil {
		t.Fatalf("call after a failed one = (%q, %v, %v), want a fresh run", v, shared, err)
	}
	if len(g.calls) != 0 {
		t.Fatalf("%d calls retained after completion", len(g.calls))
	}
}

// TestFlightPanicReleasesWaiters: a panicking fn must not strand the
// callers that joined it, nor hand them a zero value as a success.
func TestFlightPanicReleasesWaiters(t *testing.T) {
	var g Flight[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		_, _, _ = g.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() (int, error) { return 0, nil })
		waiterDone <- err
	}()
	parked(&g, "k", 1)
	close(release)
	if err := <-waiterDone; err == nil {
		t.Fatal("waiter of a panicked call saw success")
	}
}

// refLRU is the naive model LRU is checked against: a slice in recency
// order, oldest first.
type refLRU struct {
	keys  []int
	sizes map[int]int64
}

func (r *refLRU) remove(k int) {
	for i, o := range r.keys {
		if o == k {
			r.keys = append(r.keys[:i:i], r.keys[i+1:]...)
		}
	}
	delete(r.sizes, k)
}

func (r *refLRU) total() (n int64) {
	for _, s := range r.sizes {
		n += s
	}
	return n
}

// TestLRUAgainstModel drives LRU and the model with the same seeded
// random add/touch/remove/evict sequence and compares every answer:
// victim order, freed bytes, byte total, length, and that the key just
// added is never among the victims.
func TestLRUAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l LRU[int]
		ref := &refLRU{sizes: map[int]int64{}}
		max := int64(50 + rng.Intn(200))
		for step := 0; step < 2000; step++ {
			k := rng.Intn(40)
			switch op := rng.Intn(10); {
			case op < 5: // add (or replace), then trim to the cap
				size := int64(1 + rng.Intn(120)) // some exceed the cap alone
				l.Add(k, size)
				ref.remove(k)
				ref.keys, ref.sizes[k] = append(ref.keys, k), size
				var want []int
				var wantFreed int64
				for ref.total() > max && len(ref.keys) > 1 {
					v := ref.keys[0]
					want, wantFreed = append(want, v), wantFreed+ref.sizes[v]
					ref.remove(v)
				}
				got, freed := l.Evict(max)
				if !reflect.DeepEqual(got, want) || freed != wantFreed {
					t.Fatalf("seed %d step %d: Evict = %v (%d bytes), want %v (%d)", seed, step, got, freed, want, wantFreed)
				}
				for _, v := range got {
					if v == k {
						t.Fatalf("seed %d step %d: evicted key %d just added", seed, step, k)
					}
				}
			case op < 8: // touch
				_, known := ref.sizes[k]
				if got := l.Touch(k); got != known {
					t.Fatalf("seed %d step %d: Touch(%d) = %v, want %v", seed, step, k, got, known)
				}
				if known {
					size := ref.sizes[k]
					ref.remove(k)
					ref.keys, ref.sizes[k] = append(ref.keys, k), size
				}
			default: // remove: how an owner drops even the newest key
				wantSize, known := ref.sizes[k]
				if size, ok := l.Remove(k); ok != known || size != wantSize {
					t.Fatalf("seed %d step %d: Remove(%d) = (%d, %v), want (%d, %v)", seed, step, k, size, ok, wantSize, known)
				}
				ref.remove(k)
			}
			if l.Len() != len(ref.keys) || l.Size() != ref.total() {
				t.Fatalf("seed %d step %d: Len/Size = %d/%d, want %d/%d", seed, step, l.Len(), l.Size(), len(ref.keys), ref.total())
			}
		}
		if got, _ := l.Evict(0); got != nil {
			t.Fatalf("seed %d: Evict(0) evicted %v from an unbounded index", seed, got)
		}
	}
}

// TestParallelContract: every task runs once, no more than limit at
// once (all of them when limit is 0), and the error returned is the
// first in task order even when a later task fails first.
func TestParallelContract(t *testing.T) {
	for _, tc := range []struct{ n, limit, wantPeak int }{
		{0, 3, 0}, {1, 0, 1}, {10, 3, 3}, {5, 0, 5}, {4, 9, 4},
	} {
		var ran, running, peak atomic.Int64
		var window sync.WaitGroup // the first tasks, all in flight at once
		window.Add(tc.wantPeak)
		err := Parallel(tc.n, tc.limit, func(i int) error {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if i < tc.wantPeak {
				window.Done()
				window.Wait()
			}
			running.Add(-1)
			ran.Add(1)
			return nil
		})
		if err != nil || ran.Load() != int64(tc.n) || peak.Load() != int64(tc.wantPeak) {
			t.Errorf("Parallel(%d, %d): err %v, %d ran, peak %d; want nil, %d, %d",
				tc.n, tc.limit, err, ran.Load(), peak.Load(), tc.n, tc.wantPeak)
		}
	}

	late, early := errors.New("task 1"), errors.New("task 3")
	release := make(chan struct{})
	var ran atomic.Int64
	err := Parallel(5, 0, func(i int) error {
		defer ran.Add(1)
		switch i {
		case 1:
			<-release // fails only after task 3 has
			return late
		case 3:
			defer close(release)
			return early
		}
		return nil
	})
	if err != late || ran.Load() != 5 {
		t.Errorf("Parallel returned %v after %d tasks, want task 1's error after all 5", err, ran.Load())
	}
}
