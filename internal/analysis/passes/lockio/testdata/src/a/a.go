// Package a exercises the lockio analyzer.
package a

import (
	"os"
	"sync"
)

type store struct {
	mu sync.Mutex
	m  map[string]bool
}

func (s *store) deferHeld(p string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile(p) // want `os.ReadFile called while s.mu is held`
}

func (s *store) explicitHeld(p string) error {
	s.mu.Lock()
	err := os.Remove(p) // want `os.Remove called while s.mu is held`
	s.mu.Unlock()
	return err
}

func (s *store) outside(p string) ([]byte, error) {
	s.mu.Lock()
	ok := s.m[p]
	s.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	return os.ReadFile(p)
}

func (s *store) pure(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.IsNotExist(err)
}

type rw struct {
	mu sync.RWMutex
}

func (r *rw) readHeld(p string) (os.FileInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return os.Stat(p) // want `os.Stat called while r.mu is held`
}

func (r *rw) literalScope(p string) func() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The literal is its own scope: it does not run under the lock.
	return func() error {
		return os.Remove(p)
	}
}

func (s *store) suppressed(p string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//comtainer:allow lockio -- exercising the suppression syntax
	return os.Remove(p)
}

// earlyReturnUnlock is UploadManager.Commit's shape: the unlock in the
// early-return branch ends the section on that path only. A lexical
// "closes at the first matching unlock" rule stops looking there; the
// path that falls through still holds s.mu at the ReadFile.
func (s *store) earlyReturnUnlock(p string) ([]byte, error) {
	s.mu.Lock()
	if !s.m[p] {
		s.mu.Unlock()
		return nil, os.ErrNotExist
	}
	data, err := os.ReadFile(p) // want `os.ReadFile called while s.mu is held`
	s.mu.Unlock()
	return data, err
}

// earlyContinueUnlock is the same shape across a loop back-edge: the
// unlock before `continue` releases only the iterations that take it.
func (s *store) earlyContinueUnlock(ps []string) {
	for _, p := range ps {
		s.mu.Lock()
		if !s.m[p] {
			s.mu.Unlock()
			continue
		}
		os.Remove(p) // want `os.Remove called while s.mu is held`
		s.mu.Unlock()
	}
}

// oneBranchOnly pins the must-hold choice: the lockset at a merge is
// the intersection of its predecessors, so a lock taken on one branch
// is not "held" afterwards and the Remove is not flagged, although the
// locked path does reach it. The suite reports what holds on every
// path and never blames I/O for a lock some path did not take;
// lockorder and guardedby read the same set.
func (s *store) oneBranchOnly(p string, locked bool) error {
	if locked {
		s.mu.Lock()
	}
	err := os.Remove(p)
	if locked {
		s.mu.Unlock()
	}
	return err
}

// unlockOnBackEdge: the loop body gives the lock up, so the back edge
// reaches the loop head without it and nothing is definitely held in
// the loop or after it — same must-hold rule, through a cycle in the
// CFG instead of a diamond.
func (s *store) unlockOnBackEdge(ps []string) {
	s.mu.Lock()
	for _, p := range ps {
		delete(s.m, p)
		s.mu.Unlock()
	}
	os.Remove("journal")
}

func (s *store) lock()   { s.mu.Lock() }
func (s *store) unlock() { s.mu.Unlock() }

// viaHelpers never names the mutex: lock() leaves its class held and
// unlock() releases it, both through the summaries lockorder exports
// (Leaves/Releases), so the section is the same as if it were spelled
// out. With no receiver expression to show, the message names the
// class.
func (s *store) viaHelpers(p string) error {
	s.lock()
	err := os.Remove(p) // want `os.Remove called while a.store.mu is held`
	s.unlock()
	if err != nil {
		return err
	}
	return os.Remove(p + ".bak")
}

// localMutex has no class lockorder could compare across functions —
// the mutex is a local — but it convoys its goroutines all the same.
func localMutex(ps []string) {
	var mu sync.Mutex
	for _, p := range ps {
		mu.Lock()
		os.Remove(p) // want `os.Remove called while mu is held`
		mu.Unlock()
	}
}
