package distrib

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

func TestUploadChunkedCommit(t *testing.T) {
	for _, spool := range []string{"", t.TempDir()} {
		m := NewUploadManager(spool)
		u, err := m.Start("user/app")
		if err != nil {
			t.Fatal(err)
		}
		content := "first-chunk|second-chunk|third"
		var off int64
		for _, chunk := range []string{"first-chunk|", "second-chunk|", "third"} {
			size, err := u.Append(strings.NewReader(chunk), off)
			if err != nil {
				t.Fatal(err)
			}
			off = size
		}
		want := digest.FromString(content)
		sink := oci.NewStore()
		d, n, err := m.Commit(u, sink, want)
		if err != nil {
			t.Fatal(err)
		}
		if d != want || n != int64(len(content)) {
			t.Errorf("commit = %s/%d, want %s/%d", d.Short(), n, want.Short(), len(content))
		}
		if !sink.Has(want) {
			t.Error("committed blob not in sink")
		}
		if _, ok := m.Get(u.ID); ok {
			t.Error("session survives commit")
		}
	}
}

func TestUploadRangeMismatch(t *testing.T) {
	m := NewUploadManager("")
	u, err := m.Start("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append(strings.NewReader("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	// A chunk claiming the wrong start offset is rejected...
	if _, err := u.Append(strings.NewReader("XYZ"), 4); !errors.Is(err, ErrRangeMismatch) {
		t.Fatalf("mis-aligned chunk error = %v, want ErrRangeMismatch", err)
	}
	// ...without consuming anything, so a correctly-aligned retry works.
	if size, err := u.Append(strings.NewReader("abc"), 10); err != nil || size != 13 {
		t.Fatalf("aligned retry = %d, %v", size, err)
	}
}

func TestUploadCommitVerifies(t *testing.T) {
	m := NewUploadManager("")
	u, err := m.Start("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append(strings.NewReader("actual content"), -1); err != nil {
		t.Fatal(err)
	}
	sink := oci.NewStore()
	if _, _, err := m.Commit(u, sink, digest.FromString("declared content")); err == nil {
		t.Fatal("commit accepted a digest mismatch")
	}
	if len(sink.Digests()) != 0 {
		t.Error("mismatched blob reached the sink")
	}
	// Failed commits leave the session open for a retry.
	if _, ok := m.Get(u.ID); !ok {
		t.Error("session dropped by failed commit")
	}
}

func TestUploadCancel(t *testing.T) {
	m := NewUploadManager(t.TempDir())
	u, err := m.Start("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append(strings.NewReader("bytes"), -1); err != nil {
		t.Fatal(err)
	}
	m.Cancel(u)
	if _, ok := m.Get(u.ID); ok {
		t.Error("session survives cancel")
	}
	if _, err := u.Append(strings.NewReader("more"), -1); !errors.Is(err, ErrUploadClosed) {
		t.Errorf("append after cancel = %v, want ErrUploadClosed", err)
	}
}

// parkedReader delivers nothing until released: a client that opened a
// chunk upload and stalled.
type parkedReader struct {
	entered chan struct{}
	release chan struct{}
}

func (p *parkedReader) Read([]byte) (int, error) {
	close(p.entered)
	<-p.release
	return 0, io.EOF
}

// TestUploadHeadOfLine: one session's Append parked mid-chunk holds
// that session's mutex for as long as the client stalls. With a TTL
// every Start sweeps, and the sweep reads each session's idle timer
// under the manager's lock — so if the timer lived under the session
// mutex, one stalled client would park Start, Get and Len for every
// other session. They must return promptly.
func TestUploadHeadOfLine(t *testing.T) {
	m := NewUploadManager(t.TempDir())
	m.TTL = time.Hour
	stalled, err := m.Start("slow/client")
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Start("other/client")
	if err != nil {
		t.Fatal(err)
	}
	park := &parkedReader{entered: make(chan struct{}), release: make(chan struct{})}
	appended := make(chan error, 1)
	go func() {
		_, err := stalled.Append(park, -1)
		appended <- err
	}()
	<-park.entered // Append is inside io.Copy, holding stalled.mu

	done := make(chan error, 1)
	go func() {
		if _, err := m.Start("third/client"); err != nil {
			done <- err
			return
		}
		if _, ok := m.Get(other.ID); !ok {
			done <- errors.New("other session lost")
			return
		}
		if _, ok := m.Get(stalled.ID); !ok {
			done <- errors.New("stalled session lost")
			return
		}
		if got := m.Len(); got != 3 {
			done <- fmt.Errorf("Len = %d, want 3", got)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Start/Get/Len for other sessions blocked behind one session's stalled Append")
	}
	close(park.release)
	if err := <-appended; err != nil {
		t.Errorf("released Append: %v", err)
	}
}

// slowSink parks inside Ingest until released.
type slowSink struct {
	BlobSink
	entered chan struct{}
	release chan struct{}
}

func (s *slowSink) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	close(s.entered)
	<-s.release
	return s.BlobSink.Ingest(r, want)
}

// TestUploadCommitSealsSession: the sink reads the spool outside the
// session mutex, so Size answers during a slow commit, and the session
// is sealed while it runs: a chunk arriving mid-commit is refused, not
// appended under the sink's feet, and a failed commit reopens it with
// the append position intact.
func TestUploadCommitSealsSession(t *testing.T) {
	for _, spool := range []string{"", t.TempDir()} {
		m := NewUploadManager(spool)
		u, err := m.Start("x")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.Append(strings.NewReader("half"), -1); err != nil {
			t.Fatal(err)
		}
		sink := &slowSink{BlobSink: oci.NewStore(), entered: make(chan struct{}), release: make(chan struct{})}
		committed := make(chan error, 1)
		go func() {
			_, _, err := m.Commit(u, sink, digest.FromString("half+rest"))
			committed <- err
		}()
		<-sink.entered
		if got := u.Size(); got != 4 {
			t.Errorf("Size during commit = %d, want 4", got)
		}
		if _, err := u.Append(strings.NewReader("late"), -1); !errors.Is(err, ErrUploadClosed) {
			t.Errorf("Append during commit = %v, want ErrUploadClosed", err)
		}
		close(sink.release)
		if err := <-committed; err == nil {
			t.Fatal("commit of a short upload verified")
		}
		// Reopened: the rest arrives at the old offset and commits.
		if size, err := u.Append(strings.NewReader("+rest"), 4); err != nil || size != 9 {
			t.Fatalf("Append after failed commit = %d, %v", size, err)
		}
		store := oci.NewStore()
		if _, _, err := m.Commit(u, store, digest.FromString("half+rest")); err != nil {
			t.Fatalf("retry commit: %v", err)
		}
		if !store.Has(digest.FromString("half+rest")) {
			t.Error("retried blob not in sink")
		}
	}
}
