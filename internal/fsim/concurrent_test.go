package fsim

import (
	"fmt"
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

// TestFSConcurrentUse drives every method of FS that takes its lock
// from a goroutine of its own while another writes: a file system is
// shared by the layers an oci.Store remembers, the farm's kept trees and
// a build's stages. Meant for -race, which reports any method whose read
// or write of the entries is not under f.mu. Each method runs beside one
// writer at a time, so the race detector's few slots per word hold the
// two accesses that race. Apply reads the layer it folds while that
// layer is written, and Equal both its file systems, so their read locks
// count too.
func TestFSConcurrentUse(t *testing.T) {
	f, other := New(), New()
	for i := range 8 {
		p := fmt.Sprintf("/d/f%d", i)
		f.WriteFile(p, []byte("x"), 0o644)
		other.WriteFile(p, []byte("y"), 0o644)
	}
	f.Symlink("/d/f0", "/link")
	write := func(fs *FS) func() {
		i := 0
		return func() { fs.WriteFile(fmt.Sprintf("/w/f%d", i%16), []byte("data"), 0o644); i++ }
	}
	for _, op := range []func(){
		func() { f.MkdirAll("/m/a/b", 0o755) },
		func() { f.Symlink("/d/f1", "/s/link") },
		func() { f.Add(&File{Path: "/a/file", Type: TypeRegular, Mode: 0o644, Data: []byte("a")}) },
		func() { f.Remove("/m") },
		func() { f.Len() },
		func() { f.Exists("/d/f1") },
		func() { f.Stat("/d/f2") },
		func() { f.ReadFile("/d/f3") },
		func() { f.Paths() },
		func() { f.Glob("f*") },
		func() { f.Walk(func(*File) error { return nil }) },
		func() { f.Clone() },
		func() { f.Equal(f) },
		func() { f.TotalSize() },
		func() { f.ResolveSymlink("/link") },
		func() { Apply(other, f) },
		write(f),
	} {
		hammer(100, op, write(f))
	}
	hammer(100, func() { f.Equal(other) }, write(f), write(other))
	hammer(100, func() { other.Equal(f) }, write(f), write(other))
	if !f.Exists("/d/f7") || !f.Exists("/w/f15") {
		t.Errorf("entries lost: /d/f7 %v, /w/f15 %v", f.Exists("/d/f7"), f.Exists("/w/f15"))
	}
}
