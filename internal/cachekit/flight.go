// Package cachekit holds what every cache and fan-out in the system is
// built from — in-flight call deduplication, a byte-bounded recency
// index, a bounded parallel run — so that each package imports one
// copy instead of carrying its own. Standard library only.
package cachekit

import (
	"cmp"
	"context"
	"errors"
	"sync"
)

// Flight collapses concurrent calls for the same key into one: the
// first caller runs fn, the rest wait for its result. Nothing is
// retained once fn returns — neither values nor errors — so the next
// call for the key runs fn again. The zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	done    chan struct{}
	waiters int // callers that joined; tests wait on it to know they have
	val     V
	err     error
}

var errPanicked = errors.New("cachekit: in-flight call panicked")

// Do runs fn for key unless a call for key is already in flight, in
// which case it waits for that call and returns its result with
// shared set.
func (g *Flight[K, V]) Do(key K, fn func() (V, error)) (v V, shared bool, err error) {
	c, shared := g.do(nil, key, fn)
	return c.val, shared, c.err
}

// DoContext is Do for callers that can give up: a waiter whose ctx is
// done returns ctx.Err() at once, while the call itself keeps running
// for the caller that owns it.
func (g *Flight[K, V]) DoContext(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	if c, shared := g.do(ctx.Done(), key, fn); c != nil {
		return c.val, shared, c.err
	}
	return v, true, ctx.Err()
}

// do returns the finished call for key — run by this caller, or joined
// (shared) — or nil if stop closed while waiting on another caller's.
func (g *Flight[K, V]) do(stop <-chan struct{}, key K, fn func() (V, error)) (c *call[V], shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c, true
		case <-stop:
			return nil, true
		}
	}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	// Should fn panic, the deferred release must hand waiters an error.
	c = &call[V]{done: make(chan struct{}), err: errPanicked}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c, false
}

// Parallel runs task(0) … task(n-1), at most limit at once (all n when
// limit is 0), waits for every one of them, and returns the first error
// in task order — not the first to happen, so the answer does not
// depend on scheduling. A failure does not stop the tasks after it.
func Parallel(n, limit int, task func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, cmp.Or(limit, n))
	var wg sync.WaitGroup
	for i := range n {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = task(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
