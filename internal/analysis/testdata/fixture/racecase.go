// racecase.go seeds the shape the atomic-function ban exists for: a
// field updated through a sync/atomic function and read plainly, which
// an atomic.Int64 field cannot express. The goroutine that makes Gauge
// shared is joined through a channel receive; its go statement is a
// second seed of the go-statement ban.
package fixture

import "sync/atomic"

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

// Watch makes Gauge goroutine-shared.
func Watch(g *Gauge) {
	done := make(chan struct{})
	go func() {
		g.Hit()
		close(done)
	}()
	<-done
}
