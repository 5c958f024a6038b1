package distrib

import (
	"bytes"
	"crypto/sha256"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// openCounter is the OS file system, counting the files opened through
// it.
type openCounter struct {
	faultinject.FS
	opens atomic.Int64
}

func (c *openCounter) OpenFile(name string, flag int, perm fs.FileMode) (faultinject.File, error) {
	c.opens.Add(1)
	return c.FS.OpenFile(name, flag, perm)
}

// heldStore returns a fresh store over an open counter, and a blob of
// size seeded bytes ingested into it.
func heldStore(t *testing.T, size int) (*DiskStore, *openCounter, digest.Digest, []byte) {
	t.Helper()
	fsys := &openCounter{FS: faultinject.OS()}
	s, err := NewDiskStoreFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(payload)
	d, _, err := s.Ingest(bytes.NewReader(payload), "")
	if err != nil {
		t.Fatal(err)
	}
	return s, fsys, d, payload
}

// readWhole reads blob d at the size Open gives, never asking for EOF, as a
// sized reader or an HTTP response does.
func readWhole(s *DiskStore, d digest.Digest) ([]byte, error) {
	r, size, err := s.Open(d)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	b := make([]byte, size)
	_, err = io.ReadFull(r, b)
	return b, err
}

// heldNow reports whether s serves blob d from memory.
func (s *DiskStore) heldNow(d digest.Digest) bool {
	s.heldMu.Lock()
	defer s.heldMu.Unlock()
	_, ok := s.held[d]
	return ok
}

// rot rewrites blob d's file as b.
func rot(t *testing.T, s *DiskStore, d digest.Digest, b []byte) {
	t.Helper()
	if err := os.WriteFile(s.blobPath(d), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func flipped(b []byte) []byte {
	b = bytes.Clone(b)
	b[len(b)/2] ^= 1
	return b
}

// TestHeldBlobServedFromMemory: the first two reads of a blob open its
// file; the third opens none, hashes nothing and gives the same bytes,
// from a reader a Range GET can seek.
func TestHeldBlobServedFromMemory(t *testing.T) {
	s, fsys, d, payload := heldStore(t, 96<<10)
	for i := 1; i <= 4; i++ {
		before := fsys.opens.Load()
		b, err := readWhole(s, d)
		if err != nil || !bytes.Equal(b, payload) {
			t.Fatalf("read %d: %d bytes, %v", i, len(b), err)
		}
		want := int64(1)
		if i > 2 {
			want = 0
		}
		if opened := fsys.opens.Load() - before; opened != want {
			t.Errorf("read %d opened %d files, want %d", i, opened, want)
		}
	}
	r, size, err := s.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.(io.Seeker); !ok || size != int64(len(payload)) {
		t.Errorf("a held blob's reader is a %T of size %d", r, size)
	}
}

// TestHeldBlobOutlivesRotUntilRepair: a file that rots after its blob is
// held does not change what is served, and the next open of the
// directory quarantines it.
func TestHeldBlobOutlivesRotUntilRepair(t *testing.T) {
	s, _, d, payload := heldStore(t, 8<<10)
	for i := 0; i < 2; i++ {
		if _, err := readWhole(s, d); err != nil {
			t.Fatal(err)
		}
	}
	rot(t, s, d, flipped(payload))
	if b, err := readWhole(s, d); err != nil || !bytes.Equal(b, payload) {
		t.Fatalf("a held blob rotten on disk read %d bytes, %v; want the verified bytes", len(b), err)
	}
	reopened, err := NewDiskStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if rep := reopened.OpenReport(); len(rep.Corrupt) != 1 || rep.Corrupt[0] != d {
		t.Errorf("reopen found %v corrupt, want %s", rep.Corrupt, d.Short())
	}
	if reopened.Has(d) {
		t.Error("the rotten file is still addressable after the reopen")
	}
}

// TestRottenBlobNeverHeld: a file that rots, or is cut, between a
// blob's first read and its second fails every read after, and none of
// those reads makes the store hold it.
func TestRottenBlobNeverHeld(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"flipped": flipped,
		"cut":     func(b []byte) []byte { return b[:len(b)-1] },
	} {
		t.Run(name, func(t *testing.T) {
			s, _, d, payload := heldStore(t, 8<<10)
			if _, err := readWhole(s, d); err != nil {
				t.Fatal(err)
			}
			rot(t, s, d, damage(payload))
			for i := 0; i < 4; i++ {
				if b, err := readWhole(s, d); err == nil || !strings.Contains(err.Error(), "corrupt on disk") {
					t.Fatalf("read %d of a damaged blob: %d bytes, %v; want it cut short", i, len(b), err)
				}
			}
			if s.heldNow(d) {
				t.Error("the store holds a blob whose file is damaged")
			}
		})
	}
}

// TestHeldBlobGoneWithItsFile: a held blob deleted, or its file removed
// behind the store's back, is not found by Open and not had by Has.
func TestHeldBlobGoneWithItsFile(t *testing.T) {
	for name, remove := range map[string]func(*DiskStore, digest.Digest) error{
		"Delete":      (*DiskStore).Delete,
		"out of band": func(s *DiskStore, d digest.Digest) error { return os.Remove(s.blobPath(d)) },
	} {
		t.Run(name, func(t *testing.T) {
			s, _, d, _ := heldStore(t, 8<<10)
			for i := 0; i < 2; i++ {
				if _, err := readWhole(s, d); err != nil {
					t.Fatal(err)
				}
			}
			if !s.heldNow(d) {
				t.Fatal("two verified reads left the blob unheld")
			}
			if err := remove(s, d); err != nil {
				t.Fatal(err)
			}
			if name == "Delete" && s.heldNow(d) {
				t.Error("Delete left the blob's bytes held")
			}
			if _, _, err := s.Open(d); err == nil || !strings.Contains(err.Error(), "not found") {
				t.Errorf("Open of a removed held blob: %v, want not found", err)
			}
			if s.Has(d) {
				t.Error("Has = true for a removed held blob")
			}
			if s.heldNow(d) {
				t.Error("the store still holds a removed blob's bytes")
			}
		})
	}
}

// TestHeadsAndEarlyStopsNeverAdmit: an Open closed unread (what a HEAD
// does) or closed before the blob's end marks nothing, so the next full
// read is still a first one.
func TestHeadsAndEarlyStopsNeverAdmit(t *testing.T) {
	s, fsys, d, payload := heldStore(t, 64<<10)
	for i := 0; i < 4; i++ {
		r, _, err := s.Open(d)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, err := io.ReadFull(r, make([]byte, len(payload)-1)); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
	}
	if s.heldLRU.Len() != 0 {
		t.Fatalf("HEADs and reads that stopped early indexed %d blobs", s.heldLRU.Len())
	}
	for i := 0; i < 2; i++ {
		if _, err := readWhole(s, d); err != nil {
			t.Fatal(err)
		}
	}
	before := fsys.opens.Load()
	if _, err := readWhole(s, d); err != nil || fsys.opens.Load() != before {
		t.Errorf("the third full read opened %d files (%v); want it held after two", fsys.opens.Load()-before, err)
	}
}

// TestHeldBytesBounded: the held bytes and the read-once marks stay
// within maxHeldBlobBytes, the least recently used going first, and a
// blob larger than the bound is read from its file however often.
func TestHeldBytesBounded(t *testing.T) {
	s, fsys, _, _ := heldStore(t, 0)
	// Three blobs of a third of the bound and a byte each: holding the
	// third drops the first. The slice is never written to, so the OS
	// gives it no pages.
	third := make([]byte, maxHeldBlobBytes/3+1)
	var ds []digest.Digest
	for i := 0; i < 3; i++ {
		ds = append(ds, digest.FromString(strings.Repeat("x", i)))
		s.verified(ds[i], third)
	}
	if s.heldLRU.Size() > maxHeldBlobBytes || s.heldNow(ds[0]) || !s.heldNow(ds[1]) || !s.heldNow(ds[2]) {
		t.Errorf("held %d bytes (bound %d): %v %v %v", s.heldLRU.Size(), maxHeldBlobBytes, s.heldNow(ds[0]), s.heldNow(ds[1]), s.heldNow(ds[2]))
	}
	if len(s.held) != s.heldLRU.Len() {
		t.Errorf("%d blobs held, %d indexed", len(s.held), s.heldLRU.Len())
	}

	// A blob one byte over the bound, as a file with no blocks.
	size := int64(maxHeldBlobBytes + 1)
	h := sha256.New()
	if _, err := io.CopyN(h, zeros{}, size); err != nil {
		t.Fatal(err)
	}
	big := digest.FromHash(h)
	if err := os.WriteFile(s.blobPath(big), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(s.blobPath(big), size); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, _, err := s.Open(big)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	before := fsys.opens.Load()
	r, _, err := s.Open(big)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if s.heldNow(big) || fsys.opens.Load() != before+1 {
		t.Error("a blob over the bound is held")
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestHeldBlobConcurrentOpenDelete: Opens racing a Delete each get the
// blob's bytes or not-found, and once the Delete is done every Open gets
// not-found, whatever a read in flight verified after it (run under
// -race).
func TestHeldBlobConcurrentOpenDelete(t *testing.T) {
	s, _, d, payload := heldStore(t, 16<<10)
	for round := 0; round < 20; round++ {
		if _, _, err := s.Ingest(bytes.NewReader(payload), d); err != nil {
			t.Fatal(err)
		}
		err := cachekit.Parallel(8, 8, func(i int) error {
			if i == 0 {
				return s.Delete(d)
			}
			for j := 0; j < 3; j++ {
				b, err := readWhole(s, d)
				if err != nil && !strings.Contains(err.Error(), "not found") || err == nil && !bytes.Equal(b, payload) {
					t.Errorf("a read racing Delete: %d bytes, %v", len(b), err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Open(d); err == nil || s.Has(d) {
			t.Fatalf("round %d: the deleted blob still opens (Has %v)", round, s.Has(d))
		}
	}
}
