package distrib

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// DiskStore is a persistent content-addressed blob store. Blobs live in
// a sharded layout — blobs/sha256/ab/abcd… — keyed by the first two hex
// characters so no single directory grows unbounded. Writes stream into
// a temp file and are renamed into place only after the digest checks
// out, so a crash mid-write never leaves a corrupt blob addressable.
// Reads verify content against the digest as it streams out.
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
}

// NewDiskStore opens (creating if needed) a disk store rooted at dir
// and repairs any damage a previous crash left behind: torn temp files
// are swept and corrupt or misnamed blobs are quarantined (see Repair).
func NewDiskStore(dir string) (*DiskStore, error) {
	return NewDiskStoreFS(dir, faultinject.OS())
}

// NewDiskStoreFS is NewDiskStore writing through fsys — the hook chaos
// tests use to inject EIO, short writes and power cuts.
func NewDiskStoreFS(dir string, fsys faultinject.FS) (*DiskStore, error) {
	s := &DiskStore{root: dir, fs: fsys}
	for _, d := range []string{s.blobRoot(), s.tmpDir()} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("distrib: creating store dir: %w", err)
		}
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

// OpenReport returns what the open-time Repair found and fixed. A
// later Fsck scans the already-healed store and reports it clean, so
// this is the only record of damage repaired at mount.
func (s *DiskStore) OpenReport() FsckReport { return s.openRepair }

// Root returns the directory the store persists under.
func (s *DiskStore) Root() string { return s.root }

func (s *DiskStore) blobRoot() string      { return filepath.Join(s.root, "blobs", "sha256") }
func (s *DiskStore) tmpDir() string        { return filepath.Join(s.root, "tmp") }
func (s *DiskStore) quarantineDir() string { return filepath.Join(s.root, "quarantine") }

// blobPath returns the sharded path of blob d.
func (s *DiskStore) blobPath(d digest.Digest) string {
	hex := d.Hex()
	return filepath.Join(s.blobRoot(), hex[:2], hex)
}

// Has reports whether blob d is on disk.
func (s *DiskStore) Has(d digest.Digest) bool {
	if d.Validate() != nil {
		return false
	}
	fi, err := s.fs.Stat(s.blobPath(d))
	return err == nil && fi.Mode().IsRegular()
}

// Open streams blob d. The returned reader verifies the content hash
// incrementally: the Read that reaches the size Open returned fails,
// withholding its bytes, if the on-disk bytes do not hash to d, so a
// reader that stops there without asking for EOF (oci.SizedReader, an
// HTTP request body) still sees corruption. A file that ends early fails
// too.
func (s *DiskStore) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	if err := d.Validate(); err != nil {
		return nil, 0, err
	}
	f, err := faultinject.Open(s.fs, s.blobPath(d))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("distrib: blob not found: %s", d)
		}
		return nil, 0, fmt.Errorf("distrib: opening blob %s: %w", d.Short(), err)
	}
	fi, err := s.fs.Stat(s.blobPath(d))
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("distrib: stat blob %s: %w", d.Short(), err)
	}
	return &verifyingReader{f: f, want: d, h: sha256.New(), left: fi.Size()}, fi.Size(), nil
}

// verifyingReader delivers the size Open stat'ed, hashing as it goes,
// and checks the hash in the Read that reaches it.
type verifyingReader struct {
	f    faultinject.File
	want digest.Digest
	h    hash.Hash
	left int64 // bytes not yet delivered
	end  error // once set, what every Read returns: io.EOF or the verdict
}

func (v *verifyingReader) Read(p []byte) (int, error) {
	if v.end != nil {
		return 0, v.end
	}
	n, err := v.f.Read(p[:min(int64(len(p)), v.left)])
	v.h.Write(p[:n])
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
// the file into its sharded location. The rename is atomic: concurrent
// ingests of the same content race benignly to the same final path.
//
// The stat+rename pair deliberately runs under mu — that is the lock's
// whole purpose: a Delete may never observe a half-committed blob.
//
//comtainer:allow lockio -- mu exists to serialize commit renames with Delete
func (s *DiskStore) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	if want != "" {
		if err := want.Validate(); err != nil {
			return "", 0, err
		}
	}
	tmp, err := s.fs.CreateTemp(s.tmpDir(), "ingest-*")
	if err != nil {
		return "", 0, fmt.Errorf("distrib: creating temp blob: %w", err)
	}
	tmpName := tmp.Name()
	defer s.fs.Remove(tmpName) // no-op after successful rename
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(tmp, h), r)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", 0, fmt.Errorf("distrib: writing blob: %w", err)
	}
	got := digest.FromHash(h)
	if want != "" && got != want {
		return "", 0, fmt.Errorf("distrib: digest mismatch: content is %s, want %s", got, want)
	}
	dst := s.blobPath(got)
	if err := s.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return "", 0, fmt.Errorf("distrib: creating shard dir: %w", err)
	}
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

// Delete removes blob d from disk. Absent blobs are not an error.
//
//comtainer:allow lockio -- mu exists to serialize Delete with commit renames
func (s *DiskStore) Delete(d digest.Digest) error {
	if err := d.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.Remove(s.blobPath(d)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("distrib: deleting blob %s: %w", d.Short(), err)
	}
	return nil
}

// Digests walks the sharded layout and returns every stored digest,
// sorted.
func (s *DiskStore) Digests() []digest.Digest {
	var out []digest.Digest
	shards, err := os.ReadDir(s.blobRoot())
	if err != nil {
		return nil
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.blobRoot(), shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if d, err := digest.FromHex(f.Name()); err == nil {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
