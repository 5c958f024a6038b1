package actioncache

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/cachekit"
	"comtainer/internal/faultinject"
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

// TestRecorderConcurrentUse: an action's file system calls note inputs
// and outputs from whatever goroutines the action runs, and Result may
// be taken while they do. Meant for -race, which reports a method whose
// access to the two maps is not under r.mu.
func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder()
	in, out := 0, 0
	noteInput := func() { r.NoteInput(OpRead, fmt.Sprintf("/in/%d", in), "s"); in++ }
	noteOutput := func() { r.NoteOutput(fmt.Sprintf("/out/%d", out%8), []byte("o"), 0o644); out++ }
	result := func() { r.Result() }
	hammer(100, noteInput, noteOutput)
	hammer(100, result, noteInput)
	hammer(100, result, noteOutput)
	res, states := r.Result()
	if len(res.Inputs) != 200 || len(states) != 200 || len(res.Outputs) != 8 {
		t.Errorf("%d inputs, %d states, %d outputs; want 200, 200, 8", len(res.Inputs), len(states), len(res.Outputs))
	}
}

// unreadable fails every read-only open of one file once armed, so a
// record the index names in it fails its read and Get drops it. Its
// first segment creation waits a moment for a second to begin, which
// only Puts that are not serialized make.
type unreadable struct {
	faultinject.FS
	path    string
	armed   atomic.Bool
	creates atomic.Int32
	second  chan struct{}
}

func (u *unreadable) CreateTemp(dir, pattern string) (faultinject.File, error) {
	switch u.creates.Add(1) {
	case 1:
		select {
		case <-u.second:
		case <-time.After(100 * time.Millisecond):
		}
	case 2:
		close(u.second)
	}
	return u.FS.CreateTemp(dir, pattern)
}

func (u *unreadable) OpenFile(name string, flag int, perm fs.FileMode) (faultinject.File, error) {
	if flag == os.O_RDONLY && name == u.path && u.armed.Load() {
		return nil, fmt.Errorf("unreadable %s", name)
	}
	return u.FS.OpenFile(name, flag, perm)
}

// TestDiskCacheConcurrentUse: one opener's Get and Put run at once from a
// rebuild's workers, a Get dropping a record whose read failed while a
// Put indexes another. Meant for -race, which reports a section of Get or
// of Put's append whose access to the index is not under c.mu. The first
// Puts, from several goroutines at once, open one segment, not one each,
// and Puts of one key leave the index naming the record a reopen finds
// last: c.wmu makes an append and its indexing one step.
func TestDiskCacheConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	first := mustReopen(t, dir)
	const old = 400
	for i := range old {
		if err := first.Put(key(fmt.Sprintf("old/%d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	segs := segmentFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments after one opener's puts", len(segs))
	}
	u := &unreadable{FS: faultinject.OS(), path: segs[0], second: make(chan struct{})}
	c, err := NewDiskCacheFS(dir, 0, u)
	if err != nil {
		t.Fatal(err)
	}
	u.armed.Store(true)
	putShared := func(w string) func() {
		v := 0
		return func() { c.Put(key("shared"), []byte(fmt.Sprint(w, v))); v++ }
	}
	hammer(50, putShared("x"), putShared("y"), putShared("z"))
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Errorf("%d segments after the second opener's first Puts, want 2", n)
	}
	g, p := 0, 0
	getOld := func() {
		if _, ok, _ := c.Get(key(fmt.Sprintf("old/%d", g))); ok {
			t.Errorf("old/%d served from an unreadable segment", g)
		}
		g++
	}
	put := func() {
		if err := c.Put(key(fmt.Sprintf("new/%d", p)), []byte(fmt.Sprint(p))); err != nil {
			t.Error(err)
		}
		p++
	}
	hammer(old/2, getOld, put)
	h := 0
	getNew := func() { c.Get(key(fmt.Sprintf("new/%d", h%(old/2)))); h++ }
	hammer(old/2, getOld, getNew)
	hammer(50, put, putShared("x"), putShared("y"))

	reopened := mustReopen(t, dir)
	for _, k := range []string{"shared", "new/0", "new/249"} {
		got, ok, _ := c.Get(key(k))
		again, aok, _ := reopened.Get(key(k))
		if !ok || !aok || !bytes.Equal(got, again) {
			t.Errorf("%s: served %q (%v), a reopen finds %q (%v)", k, got, ok, again, aok)
		}
	}
	if s := c.Stats(); s.Errors != old {
		t.Errorf("%d records dropped, want each of the %d unreadable ones once", s.Errors, old)
	}
}

// stallFS parks the first read-only open made while armed until release
// is closed, and closes entered when it does.
type stallFS struct {
	faultinject.FS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (s *stallFS) OpenFile(name string, flag int, perm fs.FileMode) (faultinject.File, error) {
	if flag == os.O_RDONLY && s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return s.FS.OpenFile(name, flag, perm)
}

// TestDiskCacheGetHeadOfLine: c.mu is never held across I/O, so a Get
// whose read is stalled in the file system holds up no other caller's
// Get or Put. Modelled on TestUploadHeadOfLine.
func TestDiskCacheGetHeadOfLine(t *testing.T) {
	sfs := &stallFS{FS: faultinject.OS(), entered: make(chan struct{}), release: make(chan struct{})}
	c, err := NewDiskCacheFS(t.TempDir(), 0, sfs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if err := c.Put(key(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	sfs.armed.Store(true)
	stalled := make(chan bool, 1)
	go func() {
		_, ok, _ := c.Get(key("a"))
		stalled <- ok
	}()
	<-sfs.entered // Get(a) is reading its record
	done := make(chan error, 1)
	go func() {
		if got, ok, _ := c.Get(key("b")); !ok || string(got) != "b" {
			done <- fmt.Errorf("Get(b) = %q, %v", got, ok)
			return
		}
		done <- c.Put(key("c"), []byte("c"))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Get(b) and Put(c) waited behind a Get stalled in the file system")
	}
	close(sfs.release)
	if !<-stalled {
		t.Error("the stalled Get(a) missed")
	}
}
