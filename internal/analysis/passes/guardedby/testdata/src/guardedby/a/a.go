// Package a exercises the guardedby analyzer: majority-vote guard
// inference, lock()-helper summaries from lockorder facts, deferred
// unlocks, owned-local suppression, and a goroutine-reachability
// negative.
package a

import "sync"

// Counter's n is guarded by mu on three of four accesses; the fourth
// is the race.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc is called from a goroutine (see Spin), which makes Counter.n a
// shared field and turns every access into a vote.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Dec holds the guard through a deferred unlock.
func (c *Counter) Dec() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
}

// Get reads under the guard.
func (c *Counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Racy loses the vote: three guarded accesses against this one.
func (c *Counter) Racy() int {
	return c.n // want `field .*a\.Counter\.n is guarded by .*a\.Counter\.mu on 3/4 accesses; unguarded read`
}

// NewCounter writes through a fresh, unpublished value: owned, not a
// vote, and not a diagnostic.
func NewCounter() *Counter {
	c := &Counter{}
	c.n = 0
	return c
}

// Spin spawns the goroutine that makes Counter shared.
func Spin(c *Counter) {
	done := make(chan struct{})
	go func() {
		c.Inc()
		close(done)
	}()
	<-done
}

// Gate guards val behind lock/unlock helper methods: the lockset
// dataflow must apply lockorder's Leaves/Releases summaries to see
// Set and Bump as guarded.
type Gate struct {
	mu  sync.Mutex
	val int
}

func (g *Gate) lock()   { g.mu.Lock() }
func (g *Gate) unlock() { g.mu.Unlock() }

// Set holds the guard between the helper calls.
func (g *Gate) Set(v int) {
	g.lock()
	g.val = v
	g.unlock()
}

// Bump holds the guard through a deferred helper unlock.
func (g *Gate) Bump() {
	g.lock()
	defer g.unlock()
	g.val++
}

// Peek loses the vote two guarded accesses to one.
func (g *Gate) Peek() int {
	return g.val // want `field .*a\.Gate\.val is guarded by .*a\.Gate\.mu on 2/3 accesses; unguarded read`
}

// RunGate makes Gate goroutine-reachable through a joined spawn.
func RunGate(g *Gate) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Set(1)
	}()
	wg.Wait()
}

// Table's map M is written under Mu here and read bare in package b:
// the cross-package fact case.
type Table struct {
	Mu sync.Mutex
	M  map[string]int
}

// Put writes under the guard.
func (t *Table) Put(k string, v int) {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	t.M[k] = v
}

// Del reads under the guard.
func (t *Table) Del(k string) {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	delete(t.M, k)
}

// Unshared is never reachable from a goroutine: its unguarded access
// in B stays silent even though A locks.
type Unshared struct {
	mu sync.Mutex
	n  int
}

// A accesses under the lock often enough that the vote would succeed
// were the field ever shared.
func (u *Unshared) A() {
	u.mu.Lock()
	u.n++
	u.n = u.n * 2
	u.mu.Unlock()
}

// B accesses bare — but nothing concurrent ever touches Unshared.
func (u *Unshared) B() {
	u.n--
}

// Index keeps its map behind mu and does the work in *Locked helpers.
// A helper's accesses are guarded by the locks every one of its call
// sites holds (entry locks), so the Locked suffix is checked, not
// trusted.
type Index struct {
	mu sync.Mutex
	m  map[string]int
}

// Put and Drop hold mu at their call into a helper.
func (x *Index) Put(k string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.putLocked(k)
}

func (x *Index) Drop(k string) {
	x.mu.Lock()
	x.dropLocked(k)
	x.mu.Unlock()
}

// Len reads under the guard directly.
func (x *Index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.m)
}

// putLocked is entered with mu from its only caller; bumpLocked
// inherits it one call further down.
func (x *Index) putLocked(k string) {
	x.m[k] = 0
	x.bumpLocked(k)
}

func (x *Index) bumpLocked(k string) {
	x.m[k]++
}

// dropLocked has one caller that holds mu (Drop) and one that does not
// (Sloppy): the intersection is empty and its access is reported.
func (x *Index) dropLocked(k string) {
	delete(x.m, k) // want `field .*a\.Index\.m is guarded by .*a\.Index\.mu on 3/5 accesses; unguarded read`
}

func (x *Index) Sloppy(k string) {
	x.dropLocked(k)
}

// Later calls a helper from a literal. The literal runs whenever its
// caller pleases, so it vouches for no lock even though Later holds
// mu while building it: resetLocked's access is reported.
func (x *Index) Later() func() {
	x.mu.Lock()
	defer x.mu.Unlock()
	return func() { x.resetLocked() }
}

func (x *Index) resetLocked() {
	x.m = nil // want `field .*a\.Index\.m is guarded by .*a\.Index\.mu on 3/5 accesses; unguarded write`
}

// RunIndex makes Index goroutine-reachable.
func RunIndex(x *Index) {
	done := make(chan struct{})
	go func() {
		x.Put("k")
		close(done)
	}()
	<-done
}
