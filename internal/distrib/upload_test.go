package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

func TestUploadChunkedCommit(t *testing.T) {
	m := NewUploadManager()
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

func TestUploadRangeMismatch(t *testing.T) {
	m := NewUploadManager()
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
	m := NewUploadManager()
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
	m := NewUploadManager()
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
// other session. They must return promptly, and still do once the
// stalled session's timer is past the TTL: a session with a request in
// flight is not idle, so the sweep passes it by instead of waiting to
// cancel it, while the idle session beside it goes.
func TestUploadHeadOfLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		idle time.Duration // clock advance between the first two Starts and the third
	}{
		{"within TTL", time.Minute},
		{"past TTL", 2 * time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1e9, 0)
			m := NewUploadManager()
			m.TTL = time.Hour
			m.Now = func() time.Time { return now }
			stalled, err := m.Start("slow/client")
			if err != nil {
				t.Fatal(err)
			}
			other, err := m.Start("other/client")
			if err != nil {
				t.Fatal(err)
			}
			now = now.Add(tc.idle)
			expired := tc.idle > m.TTL
			park := &parkedReader{entered: make(chan struct{}), release: make(chan struct{})}
			appended := make(chan error, 1)
			go func() {
				_, err := stalled.Append(park, -1)
				appended <- err
			}()
			<-park.entered // Append is reading the chunk, holding stalled.mu

			done := make(chan error, 1)
			go func() {
				if _, err := m.Start("third/client"); err != nil {
					done <- err
					return
				}
				if _, ok := m.Get(other.ID); ok == expired {
					done <- fmt.Errorf("idle session kept = %v, want %v", ok, !expired)
					return
				}
				if _, ok := m.Get(stalled.ID); !ok {
					done <- errors.New("stalled session lost")
					return
				}
				want := 3
				if expired {
					want = 2
				}
				if got := m.Len(); got != want {
					done <- fmt.Errorf("Len = %d, want %d", got, want)
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
		})
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
	m := NewUploadManager()
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

// TestMemSpoolReadsAsOneBlob: however a sink takes what Commit hands it
// — Read in pieces of any size, WriteTo, ReadAt at any offset — the
// chunks read as the one blob they are, and it says how long it is.
func TestMemSpoolReadsAsOneBlob(t *testing.T) {
	chunks := [][]byte{[]byte("first|"), []byte("2|"), []byte("the third chunk|"), []byte("4")}
	want := string(bytes.Join(chunks, nil))
	spool := func() *memSpool { return &memSpool{chunks: chunks, size: int64(len(want))} }

	for _, piece := range []int{1, 3, 7, 64} {
		m, buf := spool(), make([]byte, piece)
		var got []byte
		for {
			if m.Len() != len(want)-len(got) {
				t.Fatalf("Len = %d with %d of %d bytes read", m.Len(), len(got), len(want))
			}
			n, err := m.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("Read(%d) = %d, %v", piece, n, err)
			}
		}
		if string(got) != want {
			t.Errorf("Read in pieces of %d = %q, want %q", piece, got, want)
		}
	}

	// WriteTo after a partial Read writes the rest, one chunk a Write.
	m := spool()
	if _, err := io.ReadFull(m, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	var w writeLog
	if n, err := m.WriteTo(&w); err != nil || n != int64(len(want)-8) || strings.Join(w.writes, "") != want[8:] {
		t.Errorf("WriteTo after 8 bytes = %d, %v, %q", n, err, w.writes)
	}
	if len(w.writes) != 2 {
		t.Errorf("WriteTo made %d writes %q, want the rest of chunk three and chunk four", len(w.writes), w.writes)
	}
	if m.Len() != 0 {
		t.Errorf("Len after WriteTo = %d", m.Len())
	}

	m = spool()
	for off := 0; off <= len(want); off++ {
		p := make([]byte, 5)
		n, err := m.ReadAt(p, int64(off))
		if string(p[:n]) != want[off:min(off+5, len(want))] || (n < 5) != (err == io.EOF) {
			t.Errorf("ReadAt(5, %d) = %q, %v", off, p[:n], err)
		}
	}
	if m.Len() != len(want) {
		t.Errorf("ReadAt moved the read position: Len %d", m.Len())
	}
}

type writeLog struct{ writes []string }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestUploadKeepsWhatArrivedNotWhatWasDeclared: the spool sizes a chunk
// by the length its request declares. A request that declares a
// megabyte and delivers ten bytes leaves ten bytes spooled — at the
// offset a resuming client will be told — and not the megabyte of room.
func TestUploadKeepsWhatArrivedNotWhatWasDeclared(t *testing.T) {
	m := NewUploadManager()
	u, err := m.Start("x")
	if err != nil {
		t.Fatal(err)
	}
	cut := io.MultiReader(strings.NewReader("ten bytes!"), iotest.ErrReader(io.ErrUnexpectedEOF))
	size, err := u.Append(oci.NewSizedReader(cut, 1<<20), 0)
	if err == nil || size != 10 {
		t.Fatalf("Append of a cut chunk = %d, %v; want 10 and the error", size, err)
	}
	if len(u.chunks) != 1 || cap(u.chunks[0]) > 64 {
		t.Fatalf("spool holds %d chunks, the first with capacity %d, for 10 bytes", len(u.chunks), cap(u.chunks[0]))
	}
	if size, err = u.Append(strings.NewReader(" and the rest"), 10); err != nil || size != 23 {
		t.Fatalf("resumed Append = %d, %v", size, err)
	}
	store := oci.NewStore()
	want := digest.FromString("ten bytes! and the rest")
	if _, n, err := m.Commit(u, store, want); err != nil || n != 23 || !store.Has(want) {
		t.Fatalf("Commit = %d, %v", n, err)
	}
}

// TestUploadBoundedByMaxBlobSize: a session four bytes short of
// oci.MaxBlobSize refuses a declared chunk of five before reading it,
// and reads an undeclared one up to the bound and no further.
func TestUploadBoundedByMaxBlobSize(t *testing.T) {
	m := NewUploadManager()
	u, err := m.Start("x")
	if err != nil {
		t.Fatal(err)
	}
	u.size = oci.MaxBlobSize - 4 // as if that much had arrived
	declared := oci.NewSizedReader(strings.NewReader("fives"), 5)
	if size, err := u.Append(declared, -1); !errors.Is(err, oci.ErrBlobTooLarge) || size != oci.MaxBlobSize-4 || declared.Len() != 5 {
		t.Errorf("Append declaring 5 bytes with room for 4 = %d, %v, %d bytes unread; want ErrBlobTooLarge, nothing read", size, err, declared.Len())
	}
	if size, err := u.Append(struct{ io.Reader }{strings.NewReader("undeclared")}, -1); !errors.Is(err, oci.ErrBlobTooLarge) || size != oci.MaxBlobSize {
		t.Errorf("undeclared Append past the bound = %d, %v; want the bound and ErrBlobTooLarge", size, err)
	}
	if size, err := u.Append(strings.NewReader(""), -1); err != nil || size != oci.MaxBlobSize {
		t.Errorf("empty Append at the bound = %d, %v", size, err)
	}
	m.Cancel(u)
}
