package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
	"comtainer/internal/oci"
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

// TestMemTagsConcurrentUse: a registry resolves, lists, sets and deletes
// tags from every handler at once. Meant for -race, which reports a
// method whose access to the map is not under t.mu.
func TestMemTagsConcurrentUse(t *testing.T) {
	tags := NewMemTags()
	tags.Set("app", "latest", oci.Descriptor{Size: 1})
	set := func() func() {
		i := 0
		return func() { tags.Set("app", fmt.Sprint("v", i%8), oci.Descriptor{Size: int64(i)}); i++ }
	}
	for _, op := range []func(){
		func() { tags.Resolve("app", "latest") },
		func() { tags.Delete("app", "gone") },
		func() { tags.Tags("app") },
		func() { tags.All() },
		set(),
	} {
		hammer(100, op, set())
	}
	if got := tags.Tags("app"); len(got) != 9 {
		t.Errorf("tags = %v, want latest and v0..v7", got)
	}
}

// TestUploadConcurrentUse: the registry's handlers start, look up,
// count, append to, commit and cancel upload sessions at once, and every
// Start sweeps. Meant for -race, which reports a section whose access to
// the session table is not under m.mu, or to a session's chunks and
// state not under u.mu. Commits here fail their digest check, so each
// runs both of its sections and leaves the session open.
func TestUploadConcurrentUse(t *testing.T) {
	m := NewUploadManager()
	const n = 100
	open := make([]*Upload, n)
	for i := range open {
		open[i], _ = m.Start("app")
	}
	start := func() { m.Start("app") }
	g := 0
	get := func() { m.Get(open[g%n].ID); g++ }
	c := 0
	cancel := func() { m.Cancel(open[c]); c++ }
	hammer(n, get, start)
	hammer(n, func() { m.Len() }, start)
	hammer(n, cancel, start)
	if got := m.Len(); got != 3*n {
		t.Errorf("%d sessions, want %d", got, 3*n)
	}

	// Every session idles past the TTL: each Start's sweep closes and
	// drops what the other's Start put in.
	now := time.Now()
	var clock atomic.Int64
	clock.Store(now.UnixNano())
	m.TTL = time.Hour
	m.Now = func() time.Time { return time.Unix(0, clock.Load()) }
	clock.Store(now.Add(2 * time.Hour).UnixNano())
	hammer(n, start, start)
	if got := m.Len(); got != 2*n {
		t.Errorf("%d sessions after the sweeps, want the %d started since", got, 2*n)
	}

	u, _ := m.Start("app")
	sink := oci.NewStore()
	wrong := digest.FromString("not these bytes")
	appendChunk := func() { u.Append(bytes.NewReader([]byte("chunk")), -1) }
	commit := func() {
		if _, _, err := m.Commit(u, sink, wrong); err == nil {
			t.Error("a commit passed its digest check")
		}
	}
	hammer(n, func() { u.Size() }, appendChunk)
	hammer(n, commit, appendChunk)
	if _, ok := m.Get(u.ID); !ok || u.Size() == 0 {
		t.Errorf("session after failed commits: live %v, %d bytes", ok, u.Size())
	}
	more := make([]*Upload, n)
	for i := range more {
		more[i], _ = m.Start("app")
	}
	a, k := 0, 0
	hammer(n, func() { more[a].Append(strings.NewReader("x"), -1); a++ }, func() { m.Cancel(more[k]); k++ })
}

// serialFS notices a blob's Remove while a rename into or out of the
// blob directory is in flight: the first such rename waits up to a
// tenth of a second for one to begin.
type serialFS struct {
	faultinject.FS
	blobs              string
	renaming, removing chan struct{}
	renameOnce, remOne sync.Once
	busy, overlap      atomic.Bool
}

func (s *serialFS) Rename(oldpath, newpath string) error {
	if filepath.Dir(oldpath) == s.blobs || filepath.Dir(newpath) == s.blobs {
		s.busy.Store(true)
		defer s.busy.Store(false)
		first := false
		s.renameOnce.Do(func() { first = true; close(s.renaming) })
		if first {
			select {
			case <-s.removing:
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return s.FS.Rename(oldpath, newpath)
}

func (s *serialFS) Remove(name string) error {
	if filepath.Dir(name) == s.blobs {
		if s.busy.Load() {
			s.overlap.Store(true)
		}
		s.remOne.Do(func() { close(s.removing) })
	}
	return s.FS.Remove(name)
}

// TestDiskStoreConcurrentUse: s.mu orders the file operations that move
// a blob: an Ingest's commit rename and a Repair's quarantine rename
// never overlap a Delete's remove of the same blob. The race detector
// cannot see this (the state is on disk), so the file system notices an
// overlap: it holds the rename open while the Delete is started.
func TestDiskStoreConcurrentUse(t *testing.T) {
	blob := []byte("the blob")
	d := digest.FromBytes(blob)
	for _, tc := range []struct {
		name string
		move func(s *DiskStore) error
	}{
		{"ingest", func(s *DiskStore) error {
			_, _, err := s.Ingest(bytes.NewReader(blob), d)
			return err
		}},
		{"quarantine", func(s *DiskStore) error {
			if err := os.WriteFile(s.blobPath(d), []byte("rotten"), 0o644); err != nil {
				return err
			}
			_, err := s.Repair()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sfs := &serialFS{FS: faultinject.OS(), blobs: filepath.Join(dir, "blobs", "sha256"),
				renaming: make(chan struct{}), removing: make(chan struct{})}
			s, err := openDiskStore(dir, sfs)
			if err != nil {
				t.Fatal(err)
			}
			moved := make(chan error, 1)
			go func() { moved <- tc.move(s) }()
			<-sfs.renaming
			if err := s.Delete(d); err != nil {
				t.Fatal(err)
			}
			if err := <-moved; err != nil {
				t.Fatal(err)
			}
			if sfs.overlap.Load() {
				t.Errorf("Delete removed the blob while the %s rename was in flight", tc.name)
			}
		})
	}
}

// stallStat parks the first Stat of one path made while armed until
// release is closed, and closes entered when it does.
type stallStat struct {
	faultinject.FS
	path             string
	armed            atomic.Bool
	entered, release chan struct{}
}

func (s *stallStat) Stat(name string) (os.FileInfo, error) {
	if name == s.path && s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return s.FS.Stat(name)
}

// TestDiskStoreOpenHeadOfLine: s.heldMu is never held across I/O, so an
// Open stalled in the file system holds up no other blob's Open, held
// or not. Modelled on TestUploadHeadOfLine.
func TestDiskStoreOpenHeadOfLine(t *testing.T) {
	sfs := &stallStat{FS: faultinject.OS(), entered: make(chan struct{}), release: make(chan struct{})}
	s, err := openDiskStore(t.TempDir(), sfs)
	if err != nil {
		t.Fatal(err)
	}
	var ds []digest.Digest
	for _, b := range []string{"slow", "fast"} {
		d, _, err := s.Ingest(strings.NewReader(b), "")
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	read := func(d digest.Digest) error {
		rc, _, err := s.Open(d)
		if err != nil {
			return err
		}
		defer rc.Close()
		_, err = oci.ReadSized(nil, rc, -1, false)
		return err
	}
	for range 2 { // read twice: the second read holds the bytes
		if err := read(ds[1]); err != nil {
			t.Fatal(err)
		}
	}
	sfs.path = s.blobPath(ds[0])
	sfs.armed.Store(true)
	stalled := make(chan error, 1)
	go func() { stalled <- read(ds[0]) }()
	<-sfs.entered // Open(slow) is in the file system
	done := make(chan error, 1)
	go func() { done <- read(ds[1]) }()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Open(fast) waited behind an Open stalled in the file system")
	}
	close(sfs.release)
	if err := <-stalled; err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Error(err)
	}
}
