package distrib

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

// ErrRangeMismatch reports a chunk whose starting offset does not line
// up with the bytes already received — the signal a resuming client
// uses (HTTP 416) to re-query the committed offset and retry from
// there.
var ErrRangeMismatch = errors.New("distrib: upload range mismatch")

// ErrUploadClosed reports an upload that was already committed or
// cancelled.
var ErrUploadClosed = errors.New("distrib: upload closed")

// UploadManager tracks in-progress blob upload sessions for a registry
// front-end. A session lives in memory for the life of the process: it
// holds the chunks its requests delivered until a Commit hands them to
// a sink, and a restart forgets it.
//
// With a positive TTL, sessions idle longer than it are swept the next
// time a session starts (lazy, so no background goroutine). A client
// that abandons an upload mid-push therefore cannot hold its bytes
// forever.
type UploadManager struct {
	// TTL is how long an idle session survives; zero disables expiry.
	TTL time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time

	mu       sync.Mutex
	sessions map[string]*Upload
}

func (m *UploadManager) clock() time.Time {
	if m.Now != nil {
		return m.Now()
	}
	return time.Now()
}

// NewUploadManager returns a manager with no sessions and no TTL.
func NewUploadManager() *UploadManager {
	return &UploadManager{sessions: make(map[string]*Upload)}
}

// Upload is one resumable blob upload session.
type Upload struct {
	// ID is the session identifier carried in upload URLs.
	ID string
	// Name is the repository the upload was opened against.
	Name string

	// touched is the idle timer, in Unix nanoseconds: an atomic outside
	// mu, which an Append holds for as long as its chunk takes to arrive.
	touched atomic.Int64
	clock   func() time.Time // the manager's; Append touches with it too

	mu     sync.Mutex
	size   int64
	chunks [][]byte // what each Append delivered, never written again
	closed bool
	// committing marks a Commit reading the spool outside mu; like
	// closed it refuses writers, but a failed commit clears it.
	committing bool
}

func (u *Upload) touch(t time.Time) { u.touched.Store(t.UnixNano()) }

func (u *Upload) touchedAt() time.Time { return time.Unix(0, u.touched.Load()) }

// Start opens a new upload session for repository name, first sweeping
// any sessions whose TTL has lapsed.
func (m *UploadManager) Start(name string) (*Upload, error) {
	m.sweep()
	idBytes := make([]byte, 16)
	if _, err := rand.Read(idBytes); err != nil {
		return nil, fmt.Errorf("distrib: generating upload id: %w", err)
	}
	u := &Upload{ID: hex.EncodeToString(idBytes), Name: name, clock: m.clock}
	u.touch(m.clock())
	m.mu.Lock()
	m.sessions[u.ID] = u
	m.mu.Unlock()
	return u, nil
}

// Get returns the session with the given id, refreshing its idle
// timer; every protocol request resolves the session through here. A
// request whose client stalls is ended by the server (daemon.Serve cuts
// a body that delivers nothing for a minute), and the session keeps the
// bytes that arrived until it is resumed or its TTL runs out.
func (m *UploadManager) Get(id string) (*Upload, bool) {
	m.mu.Lock()
	u, ok := m.sessions[id]
	m.mu.Unlock()
	if ok {
		u.touch(m.clock())
	}
	return u, ok
}

// sweep cancels every session idle longer than TTL; a zero TTL makes
// it a no-op. A session whose mutex is held has a request in flight, so
// it is not idle: the sweep passes it by rather than park every Start
// behind one client.
func (m *UploadManager) sweep() {
	if m.TTL <= 0 {
		return
	}
	cutoff := m.clock().Add(-m.TTL)
	m.mu.Lock()
	var stale []*Upload
	for _, u := range m.sessions {
		if u.touchedAt().Before(cutoff) {
			stale = append(stale, u)
		}
	}
	m.mu.Unlock()
	for _, u := range stale {
		if u.mu.TryLock() {
			u.closed = true
			u.mu.Unlock()
			m.drop(u)
		}
	}
}

// Len returns the number of live sessions.
func (m *UploadManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// drop forgets the session.
func (m *UploadManager) drop(u *Upload) {
	m.mu.Lock()
	delete(m.sessions, u.ID)
	m.mu.Unlock()
}

// Size returns the number of bytes received so far.
func (u *Upload) Size() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.size
}

// Append receives one chunk. When expectStart >= 0 it must equal the
// bytes already received, otherwise ErrRangeMismatch is returned and
// nothing is consumed from r; pass -1 to append unconditionally.
// Returns the total size after the append. A session holds at most
// oci.MaxBlobSize bytes, the most any client will pull back: a chunk
// whose declared length (oci.Sized) would take it past is refused with
// oci.ErrBlobTooLarge before anything is read, and an undeclared one
// fails the same way once it runs past. The chunk is kept as the one
// slice it was read into, allocated at the length r declares
// (oci.ReadSized), so a session costs its bytes once however many
// chunks they arrive in. The read runs under the session mutex on
// purpose: u.mu is what serializes the writers of one session.
func (u *Upload) Append(r io.Reader, expectStart int64) (int64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed || u.committing {
		return u.size, ErrUploadClosed
	}
	if expectStart >= 0 && expectStart != u.size {
		return u.size, fmt.Errorf("%w: chunk starts at %d, upload is at %d", ErrRangeMismatch, expectStart, u.size)
	}
	room := oci.MaxBlobSize - u.size
	size, declared := oci.Sized(r)
	if size > room {
		return u.size, fmt.Errorf("distrib: a %d-byte chunk takes the upload past %d bytes: %w", size, oci.MaxBlobSize, oci.ErrBlobTooLarge)
	}
	if size < 0 {
		r = &boundedReader{r: r, n: room}
	}
	chunk, err := oci.ReadSized(nil, r, size, declared)
	u.touch(u.clock()) // idle from when the chunk stopped arriving
	if err != nil {
		// Keep what arrived, but not the room made for what did not.
		chunk = bytes.Clone(chunk)
	}
	if len(chunk) > 0 {
		u.chunks = append(u.chunks, chunk)
		u.size += int64(len(chunk))
	}
	if err != nil {
		return u.size, fmt.Errorf("distrib: receiving chunk: %w", err)
	}
	return u.size, nil
}

// boundedReader reads at most n bytes of r; a byte past them is
// oci.ErrBlobTooLarge.
type boundedReader struct {
	r io.Reader
	n int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if b.n <= 0 {
		var probe [1]byte
		if n, err := b.r.Read(probe[:]); n == 0 {
			return 0, err
		}
		return 0, oci.ErrBlobTooLarge
	}
	n, err := b.r.Read(p[:min(int64(len(p)), b.n)])
	b.n -= int64(n)
	return n, err
}

// memSpool reads a session's chunks as one blob. It is what Commit
// hands a sink: it says how long it is (Len, for a sink that allocates),
// reads again from any offset (ReadAt, for a sink that sends it more
// than once) and writes itself out chunk by chunk, so a sink that
// streams gets each chunk in one Write.
type memSpool struct {
	chunks [][]byte
	size   int64
	off    int64 // Read's position
}

func (m *memSpool) Len() int { return int(m.size - m.off) }

func (m *memSpool) Read(p []byte) (int, error) {
	n, err := m.ReadAt(p, m.off)
	m.off += int64(n)
	if n > 0 {
		err = nil // a short read is not yet the end to a Reader
	}
	return n, err
}

// ReadAt implements io.ReaderAt over the chunks.
func (m *memSpool) ReadAt(p []byte, off int64) (int, error) {
	var n int
	for _, c := range m.chunks {
		if off >= int64(len(c)) {
			off -= int64(len(c))
			continue
		}
		n += copy(p[n:], c[off:])
		off = 0
		if n == len(p) {
			return n, nil
		}
	}
	return n, io.EOF
}

// WriteTo implements io.WriterTo: what is left goes out one chunk a
// Write.
func (m *memSpool) WriteTo(w io.Writer) (int64, error) {
	var written int64
	skip := m.off
	for _, c := range m.chunks {
		if skip >= int64(len(c)) {
			skip -= int64(len(c))
			continue
		}
		n, err := w.Write(c[skip:])
		skip = 0
		written += int64(n)
		m.off += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Commit finalizes the upload into sink, verifying against want (which
// must be non-empty). On success the session ends; a failed commit
// leaves the session open so a client can inspect the offset, correct
// and retry.
//
// The sink reads the chunks outside the session mutex — ingesting a
// whole blob is the longest thing a session does, and Size and Cancel
// should not wait for it. While it runs the session is sealed instead:
// Append and a second Commit get ErrUploadClosed, so the bytes the
// sink sees are the bytes that were there when Commit was called. They
// reach the sink as an io.ReaderAt whose Len is their size — a sink may
// read them again, where they lie, for as long as its Ingest runs: the
// fleet proxy sends them to the next replica from byte 0 when one fails
// mid-blob.
func (m *UploadManager) Commit(u *Upload, sink BlobSink, want digest.Digest) (digest.Digest, int64, error) {
	if err := want.Validate(); err != nil {
		return "", 0, err
	}
	u.mu.Lock()
	if u.closed || u.committing {
		u.mu.Unlock()
		return "", 0, ErrUploadClosed
	}
	u.committing = true
	content := &memSpool{chunks: u.chunks, size: u.size}
	u.mu.Unlock()

	d, n, err := sink.Ingest(content, want)

	u.mu.Lock()
	u.committing = false
	if err == nil {
		u.closed = true
	}
	u.mu.Unlock()
	if err != nil {
		return "", 0, err
	}
	m.drop(u)
	return d, n, nil
}

// Cancel aborts the session and discards received bytes.
func (m *UploadManager) Cancel(u *Upload) {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	m.drop(u)
}
