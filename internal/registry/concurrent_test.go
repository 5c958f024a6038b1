package registry

import (
	"context"
	"io"
	"net/http/httptest"
	"runtime"
	"testing"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
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

type nopHook struct{}

func (nopHook) BlobCommitted(context.Context, digest.Digest, int64, io.Reader) error { return nil }
func (nopHook) ManifestCommitted(context.Context, string, string, string, []byte) error {
	return nil
}

// TestServerConcurrentUse: a fleet replica's hook is installed and
// removed while requests run, and commits of one blob begin, end and
// answer GC at once. Meant for -race, which reports a section whose
// access to the hook or the commit table is not under its lock.
func TestServerConcurrentUse(t *testing.T) {
	s := NewServer()
	req := httptest.NewRequest("PUT", "/v2/app/blobs/uploads/x", nil)
	d := digest.FromString("blob")
	h := 0
	setHook := func() {
		if h++; h%2 == 0 {
			s.SetCommitHook(nil)
		} else {
			s.SetCommitHook(nopHook{})
		}
	}
	commit := func() { s.endCommit(d, s.beginCommit(d), nil, nil) }
	hammer(100, func() { s.hookFor(req) }, setHook)
	hammer(100, func() { s.recentlyCommitted(d) }, commit)
	hammer(100, commit, commit)
	if !s.recentlyCommitted(d) {
		t.Error("a blob committed just now is not pinned against GC")
	}
}
