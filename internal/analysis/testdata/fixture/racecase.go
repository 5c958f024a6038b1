// racecase.go seeds the static data-race violation: a field guarded by
// a mutex on most accesses but read bare (guardedby). Beside it, the
// shape the atomic-function ban exists for: a field updated through a
// sync/atomic function and read plainly, which an atomic.Int64 field
// cannot express. The goroutine that makes Counter shared is joined
// through a channel receive; its go statement is a second seed of the
// go-statement ban.
package fixture

import (
	"sync"
	"sync/atomic"
)

// Counter guards n with mu on two of three accesses.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc holds the guard.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Reset holds the guard.
func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 0
}

// Peek violates guardedby: the inferred guard is not held.
func (c *Counter) Peek() int {
	return c.n
}

// Watch makes Counter goroutine-shared.
func Watch(c *Counter) {
	done := make(chan struct{})
	go func() {
		c.Inc()
		close(done)
	}()
	<-done
}

// Gauge updates hits atomically.
type Gauge struct {
	hits int64
}

// Hit updates through sync/atomic.
func (g *Gauge) Hit() {
	atomic.AddInt64(&g.hits, 1)
}

// Snapshot reads the atomic word plainly: the race the ban prevents.
func (g *Gauge) Snapshot() int64 {
	return g.hits
}
