package distrib

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// DiskStore is a persistent content-addressed blob store in the shape of
// an OCI image layout: blob d at blobs/sha256/<hex of d>, under an
// oci-layout marker. Writes stream into a temp file under tmp/ and are
// renamed into place only after the digest checks out, so a crash
// mid-write never leaves a corrupt blob addressable. Reads verify
// content against the digest as it streams out, and a blob read whole
// and verified twice is served from memory after that (see Open).
//
// All mutating filesystem calls go through a faultinject.FS seam
// (the real OS by default), so chaos tests can kill the store at an
// arbitrary seeded write point and verify recovery.
type DiskStore struct {
	root string
	fs   faultinject.FS

	// mu serializes commit-time renames with Delete so a concurrent
	// delete cannot observe a half-committed blob.
	mu sync.Mutex

	// openRepair is what the open-time Repair found and acted on —
	// kept so operator tooling can report damage that was already
	// healed before it got a chance to scan.
	openRepair FsckReport

	heldMu  sync.Mutex                  // guards the two below; never held across I/O
	held    map[digest.Digest][]byte    // verified bytes, of blobs read whole twice
	heldLRU cachekit.LRU[digest.Digest] // held blobs by length, and blobs read whole once by key length
}

// NewDiskStore opens (creating if needed) a disk store rooted at dir
// and repairs any damage a previous crash left behind: torn temp files
// are swept and corrupt or misnamed blobs are quarantined (see Repair).
// It takes no lock: a caller that shares dir with other processes opens
// dir's DiskTags first, which holds the directory's one-writer lock.
func NewDiskStore(dir string) (*DiskStore, error) {
	return NewDiskStoreFS(dir, faultinject.OS())
}

// NewDiskStoreFS is NewDiskStore writing through fsys — the hook chaos
// tests use to inject EIO, short writes and power cuts.
func NewDiskStoreFS(dir string, fsys faultinject.FS) (*DiskStore, error) {
	s, err := openDiskStore(dir, fsys)
	if err == nil {
		err = s.writeMarker()
	}
	if err != nil {
		return nil, err
	}
	// Crash recovery runs on every open: a store is never handed out
	// with torn temp files or unreadable addressable blobs.
	rep, err := s.Repair()
	if err != nil {
		return nil, err
	}
	s.openRepair = rep
	return s, nil
}

// openDiskStore opens the store under dir, creating it if needed, with
// no Repair and no marker.
func openDiskStore(dir string, fsys faultinject.FS) (*DiskStore, error) {
	s := &DiskStore{root: dir, fs: fsys}
	for _, d := range []string{s.blobRoot(), s.tmpDir()} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("distrib: creating store dir: %w", err)
		}
	}
	if err := s.unshard(); err != nil {
		return nil, fmt.Errorf("distrib: moving sharded blobs: %w", err)
	}
	return s, nil
}

// writeMarker writes the oci-layout marker if it is missing.
func (s *DiskStore) writeMarker() error {
	marker := filepath.Join(s.root, markerFile)
	if _, err := s.fs.Stat(marker); !os.IsNotExist(err) {
		return nil
	}
	if err := replaceFile(s.fs, s.tmpDir(), marker, []byte(layoutMarker)); err != nil {
		return fmt.Errorf("distrib: writing %s: %w", markerFile, err)
	}
	return nil
}

// unshard moves the blobs of the store's older fan-out,
// blobs/sha256/<2 hex>/<hex>, up one level, a rename each, so an open cut
// short leaves the rest to the next, and removes the emptied
// directories; one holding anything else is Repair's to quarantine.
func (s *DiskStore) unshard() error {
	blobs, err := filepath.Glob(filepath.Join(s.blobRoot(), "??", "*"))
	for _, p := range blobs {
		if _, herr := digest.FromHex(filepath.Base(p)); herr == nil && err == nil {
			err = s.fs.Rename(p, filepath.Join(s.blobRoot(), filepath.Base(p)))
		}
	}
	shards, _ := filepath.Glob(filepath.Join(s.blobRoot(), "??"))
	for _, dir := range shards {
		if fi, serr := os.Stat(dir); serr == nil && fi.IsDir() {
			s.fs.Remove(dir) // fails while it holds anything
		}
	}
	return err
}

// OpenReport returns what the open-time Repair found and fixed. A
// later Repair finds the already-healed store clean, so this is the
// only record of damage repaired at mount.
func (s *DiskStore) OpenReport() FsckReport { return s.openRepair }

// Root returns the directory the store persists under.
func (s *DiskStore) Root() string { return s.root }

func (s *DiskStore) blobRoot() string      { return filepath.Join(s.root, "blobs", "sha256") }
func (s *DiskStore) tmpDir() string        { return filepath.Join(s.root, "tmp") }
func (s *DiskStore) quarantineDir() string { return filepath.Join(s.root, "quarantine") }

// blobPath returns the path of blob d.
func (s *DiskStore) blobPath(d digest.Digest) string {
	return filepath.Join(s.blobRoot(), d.Hex())
}

// Has reports whether blob d is on disk.
func (s *DiskStore) Has(d digest.Digest) bool {
	if d.Validate() != nil {
		return false
	}
	fi, err := s.fs.Stat(s.blobPath(d))
	return err == nil && fi.Mode().IsRegular()
}

// maxHeldBlobBytes bounds what a DiskStore keeps in memory: the bytes
// of the blobs it holds plus a key's length per blob read whole once.
// The least recently used beyond it are dropped, and a larger blob is
// never held. It is twenty times the most any shard leader of the
// benchmark's fleet holds with its whole corpus pulled over and over
// (13 MB), so the layers of the image a job's nodes all pull at its
// start stay held until its last node has them.
const maxHeldBlobBytes = 256 << 20

// Open streams blob d. The returned reader verifies the content hash
// incrementally: the Read that reaches the size Open returned fails,
// withholding its bytes, if the on-disk bytes do not hash to d, so a
// reader that stops there without asking for EOF (oci.SizedReader, an
// HTTP request body) still sees corruption. A file that ends early fails
// too.
//
// The second read that verifies, and no earlier one, keeps what it
// delivered: from then on, while the file is there, Open serves those
// bytes (an io.ReadSeeker) with no file read and no hash. So a blob is
// hashed off the disk at most twice however often it is read, and only
// bytes hashed to d in this process are served. A file that rots after
// that is not read again until a reopen's Repair quarantines it.
func (s *DiskStore) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	if err := d.Validate(); err != nil {
		return nil, 0, err
	}
	b, held, readOnce := s.lookupHeld(d)
	if held {
		if _, err := s.fs.Stat(s.blobPath(d)); err != nil {
			s.forget(d)
			return nil, 0, openError(d, err)
		}
		return heldReader{bytes.NewReader(b)}, int64(len(b)), nil
	}
	f, err := faultinject.Open(s.fs, s.blobPath(d))
	if err != nil {
		return nil, 0, openError(d, err)
	}
	fi, err := s.fs.Stat(s.blobPath(d))
	if err != nil { // removed since the open: not found
		f.Close()
		return nil, 0, openError(d, err)
	}
	v := &verifyingReader{f: f, want: d, h: sha256.New(), left: fi.Size(), store: s}
	v.keep = readOnce && fi.Size() <= maxHeldBlobBytes
	return v, fi.Size(), nil
}

// openError is Open's error for a failed open or stat of blob d's file.
func openError(d digest.Digest, err error) error {
	if os.IsNotExist(err) {
		return fmt.Errorf("distrib: blob not found: %s", d)
	}
	return fmt.Errorf("distrib: opening blob %s: %w", d.Short(), err)
}

// lookupHeld returns blob d's held bytes, if any, and whether a read
// verified it whole before.
func (s *DiskStore) lookupHeld(d digest.Digest) (b []byte, held, readOnce bool) {
	s.heldMu.Lock()
	defer s.heldMu.Unlock()
	if !s.heldLRU.Touch(d) {
		return nil, false, false
	}
	b, held = s.held[d]
	return b, held, true
}

// verified records a read of blob d that reached its size and hashed to
// d: the first marks it read once, a later one holds kept, the bytes it
// delivered, if it kept them.
func (s *DiskStore) verified(d digest.Digest, kept []byte) {
	s.heldMu.Lock()
	defer s.heldMu.Unlock()
	if kept != nil {
		if s.held == nil {
			s.held = make(map[digest.Digest][]byte)
		}
		s.held[d] = kept
		s.heldLRU.Add(d, int64(len(kept)))
	} else if !s.heldLRU.Touch(d) {
		s.heldLRU.Add(d, int64(len(d)))
	}
	victims, _ := s.heldLRU.Evict(maxHeldBlobBytes)
	for _, v := range victims {
		delete(s.held, v)
	}
}

// forget drops what the store holds of blob d.
func (s *DiskStore) forget(d digest.Digest) {
	s.heldMu.Lock()
	defer s.heldMu.Unlock()
	s.heldLRU.Remove(d)
	delete(s.held, d)
}

// heldReader serves a held blob.
type heldReader struct{ *bytes.Reader }

func (heldReader) Close() error { return nil }

// verifyingReader delivers the size Open stat'ed, hashing as it goes,
// and checks the hash in the Read that reaches it. A good verdict is
// reported to the store, with the delivered bytes if keep was set.
type verifyingReader struct {
	f     faultinject.File
	want  digest.Digest
	h     hash.Hash
	left  int64 // bytes not yet delivered
	end   error // once set, what every Read returns: io.EOF or the verdict
	store *DiskStore
	keep  bool
	kept  []byte // what was delivered, when keep is set
}

func (v *verifyingReader) Read(p []byte) (int, error) {
	if v.end != nil {
		return 0, v.end
	}
	if v.keep && v.kept == nil {
		v.kept = make([]byte, 0, v.left) // allocated by the first Read: a HEAD reads none
	}
	n, err := v.f.Read(p[:min(int64(len(p)), v.left)])
	v.h.Write(p[:n])
	if v.keep {
		v.kept = append(v.kept, p[:n]...)
	}
	v.left -= int64(n)
	switch {
	case v.left == 0:
		v.end = io.EOF
		if got := digest.FromHash(v.h); got != v.want {
			// Withheld, so no reader ever holds the whole corrupt blob
			// and the receiving end of a stream sees it cut short.
			v.end = fmt.Errorf("distrib: blob %s corrupt on disk: content hashes to %s", v.want.Short(), got.Short())
			return 0, v.end
		}
		v.store.verified(v.want, v.kept)
	case err == io.EOF:
		v.end = fmt.Errorf("distrib: blob %s corrupt on disk: file truncated, %d bytes missing", v.want.Short(), v.left)
	case err != nil:
		return n, err
	}
	if n > 0 && v.end == io.EOF {
		return n, nil
	}
	return n, v.end
}

func (v *verifyingReader) Close() error { return v.f.Close() }

// Ingest streams r into a temp file, verifies the digest, and renames
// the file into its place. The rename is atomic: concurrent
// ingests of the same content race benignly to the same final path.
//
// The stat+rename pair deliberately runs under mu — that is the lock's
// whole purpose: a Delete may never observe a half-committed blob.
func (s *DiskStore) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	if want != "" {
		if err := want.Validate(); err != nil {
			return "", 0, err
		}
	}
	h := sha256.New()
	tmpName, n, err := writeTemp(s.fs, s.tmpDir(), "ingest-*", r, h)
	if err != nil {
		return "", 0, fmt.Errorf("distrib: writing blob: %w", err)
	}
	defer s.fs.Remove(tmpName) // no-op after successful rename
	got := digest.FromHash(h)
	if want != "" && got != want {
		return "", 0, fmt.Errorf("distrib: digest mismatch: content is %s, want %s", got, want)
	}
	dst := s.blobPath(got)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.fs.Stat(dst); err == nil {
		return got, n, nil // content-addressed: already present, identical
	}
	if err := s.fs.Rename(tmpName, dst); err != nil {
		return "", 0, fmt.Errorf("distrib: committing blob %s: %w", got.Short(), err)
	}
	return got, n, nil
}

// Delete removes blob d from disk, and then what the store holds of it.
// Absent blobs are not an error. The remove runs under mu, so it never
// overlaps a commit rename.
func (s *DiskStore) Delete(d digest.Digest) error {
	if err := d.Validate(); err != nil {
		return err
	}
	defer s.forget(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.Remove(s.blobPath(d)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("distrib: deleting blob %s: %w", d.Short(), err)
	}
	return nil
}

// Digests returns every stored digest, sorted.
func (s *DiskStore) Digests() []digest.Digest {
	var out []digest.Digest
	files, err := os.ReadDir(s.blobRoot())
	if err != nil {
		return nil
	}
	for _, f := range files {
		if d, err := digest.FromHex(f.Name()); err == nil && !f.IsDir() {
			out = append(out, d)
		}
	}
	return out
}

// TotalSize returns the combined on-disk size of all blobs in bytes.
func (s *DiskStore) TotalSize() int64 {
	var n int64
	for _, d := range s.Digests() {
		if fi, err := s.fs.Stat(s.blobPath(d)); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// writeTemp copies r into a new file under dir, named by pattern as
// os.CreateTemp names it, and into also. The file is 0644, as every
// file an image directory publishes is: readable by other users and by
// other OCI tools. It returns the file's name and size, and removes the
// file on an error.
func writeTemp(fsys faultinject.FS, dir, pattern string, r io.Reader, also io.Writer) (string, int64, error) {
	tmp, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return "", 0, err
	}
	n, err := io.Copy(io.MultiWriter(tmp, also), r)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Chmod(tmp.Name(), 0o644)
	}
	if err != nil {
		fsys.Remove(tmp.Name())
		return "", 0, err
	}
	return tmp.Name(), n, nil
}

// replaceFile puts data at path by a temp file under tmpDir, unsynced:
// what it writes is derived (the marker, the index.json view), and an
// open writes it again when it is missing or differs.
func replaceFile(fsys faultinject.FS, tmpDir, path string, data []byte) error {
	name, _, err := writeTemp(fsys, tmpDir, "file-*", bytes.NewReader(data), io.Discard)
	if err == nil {
		if err = fsys.Rename(name, path); err != nil {
			fsys.Remove(name)
		}
	}
	return err
}
