// Package a exercises the lockorder analyzer: a two-package
// lock-order cycle through a cross-package call, a one-package cycle
// through interface dispatch, and consistently-ordered negatives.
package a

import (
	"sync"

	"comtainer/internal/analysis/passes/lockorder/testdata/src/lockorder/b"
)

// MuA participates in a cycle with b.MuB.
var MuA sync.Mutex

// CrossAB holds MuA while (transitively) acquiring b.MuB.
func CrossAB() {
	MuA.Lock()
	defer MuA.Unlock()
	b.LockB() // want `potential deadlock: lock order cycle`
}

// CrossBA acquires in the opposite order: b.MuB, then MuA.
func CrossBA() {
	b.MuB.Lock()
	defer b.MuB.Unlock()
	MuA.Lock()
	MuA.Unlock()
}

// MuC and MuD cycle through an interface call.
var (
	MuC sync.Mutex
	MuD sync.Mutex
)

type locker interface{ Hit() }

type impl struct{}

func (impl) Hit() {
	MuD.Lock()
	MuD.Unlock()
}

// UseIface holds MuC across interface dispatch; CHA resolves l.Hit to
// impl.Hit, which acquires MuD.
func UseIface(l locker) {
	MuC.Lock()
	defer MuC.Unlock()
	l.Hit() // want `potential deadlock: lock order cycle`
}

// Reverse acquires MuD then MuC, closing the cycle.
func Reverse() {
	MuD.Lock()
	defer MuD.Unlock()
	MuC.Lock()
	MuC.Unlock()
}

// Ordered mutexes are taken in one consistent order everywhere: fine.
var (
	MuX sync.Mutex
	MuY sync.Mutex
)

func orderedOne() {
	MuX.Lock()
	defer MuX.Unlock()
	MuY.Lock()
	MuY.Unlock()
}

func orderedTwo() {
	MuX.Lock()
	MuY.Lock()
	MuY.Unlock()
	MuX.Unlock()
}

// released drops MuX before taking MuY in the opposite-order path, so
// no cycle exists.
func released() {
	MuY.Lock()
	MuY.Unlock()
	MuX.Lock()
	MuX.Unlock()
}

// shards of one type share a class; re-acquisition across instances is
// a self-edge and deliberately not reported.
type shard struct{ mu sync.Mutex }

func twoShards(s1, s2 *shard) {
	s1.mu.Lock()
	defer s1.mu.Unlock()
	s2.mu.Lock()
	s2.mu.Unlock()
}

// MuP is taken before MuQ on one branch of condOuter only, and
// condReverse takes them the other way round.
var (
	MuP sync.Mutex
	MuQ sync.Mutex
)

// condOuter pins what must-hold means for the order graph: at
// MuQ.Lock() the lockset is the intersection over both branches, MuP
// is not in it, and no MuP→MuQ edge is recorded — so condReverse
// closes no cycle and nothing is reported here, although the c==true
// path can deadlock against it. A source-order scan would report it;
// it would also report locks an early-return branch had released. The
// suite keeps one lockset for lockio, guardedby and lockorder, and
// that one only ever claims what holds on every path.
func condOuter(c bool) {
	if c {
		MuP.Lock()
	}
	MuQ.Lock()
	MuQ.Unlock()
	if c {
		MuP.Unlock()
	}
}

func condReverse() {
	MuQ.Lock()
	defer MuQ.Unlock()
	MuP.Lock()
	MuP.Unlock()
}
