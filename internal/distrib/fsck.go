package distrib

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// FsckReport is what a Repair found and did. The store's invariants
// after a successful Repair:
//
//  1. every addressable path blobs/sha256/<hex> holds content that
//     hashes to sha256:<hex> (no torn or bit-rotted blob is readable);
//  2. tmp/ is empty — an interrupted ingest can never be completed, so
//     its spool is garbage by construction;
//  3. nothing is silently deleted: damaged files move to quarantine/
//     for operator inspection, only temp spools are removed outright.
type FsckReport struct {
	// Scanned counts addressable blob files examined.
	Scanned int
	// Corrupt lists blobs whose content does not hash to their name —
	// truncated by a crash mid-rename-window or rotted on disk.
	Corrupt []digest.Digest
	// Misplaced lists what blobs/sha256 holds that is not a file named
	// by a digest.
	Misplaced []string
	// OrphanTemps lists temp spool files left by interrupted writes.
	// Repair quarantines every Corrupt and Misplaced file and removes
	// every temp, or fails.
	OrphanTemps []string
}

// Clean reports whether Repair found nothing wrong.
func (r FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Misplaced) == 0 && len(r.OrphanTemps) == 0
}

// String renders the report as a one-line operator summary.
func (r FsckReport) String() string {
	return fmt.Sprintf("fsck: %d blobs scanned, %d corrupt, %d misplaced, %d orphan temps (%d quarantined, %d temps swept)",
		r.Scanned, len(r.Corrupt), len(r.Misplaced), len(r.OrphanTemps), len(r.Corrupt)+len(r.Misplaced), len(r.OrphanTemps))
}

// Repair restores the store's invariants (FsckReport): it rehashes
// every blob against its name, moves a corrupt one, and whatever in
// blobs/sha256 is not a file named by a digest, into quarantine/ (never
// deleted — an operator may still want the bytes), and removes the
// temp files of interrupted writes. It runs on every open, and
// OpenReport keeps what it did there.
func (s *DiskStore) Repair() (FsckReport, error) {
	var rep FsckReport
	files, err := os.ReadDir(s.blobRoot())
	if err != nil {
		return rep, fmt.Errorf("distrib: fsck: reading blob root: %w", err)
	}
	for _, f := range files {
		p := filepath.Join(s.blobRoot(), f.Name())
		if d, err := digest.FromHex(f.Name()); err != nil || f.IsDir() {
			rep.Misplaced = append(rep.Misplaced, p)
		} else {
			rep.Scanned++
			ok, err := s.rehash(p, d)
			if err != nil {
				return rep, fmt.Errorf("distrib: fsck: rehashing %s: %w", d.Short(), err)
			}
			if ok {
				continue
			}
			rep.Corrupt = append(rep.Corrupt, d)
		}
		if err := s.quarantine(p, len(rep.Corrupt)+len(rep.Misplaced)); err != nil {
			return rep, err
		}
	}
	temps, err := os.ReadDir(s.tmpDir())
	if err != nil && !os.IsNotExist(err) {
		return rep, fmt.Errorf("distrib: fsck: reading tmp dir: %w", err)
	}
	for _, t := range temps {
		p := filepath.Join(s.tmpDir(), t.Name())
		rep.OrphanTemps = append(rep.OrphanTemps, p)
		if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("distrib: fsck: sweeping temp %s: %w", p, err)
		}
	}
	return rep, nil
}

// rehash reports whether the file at p hashes to d.
func (s *DiskStore) rehash(p string, d digest.Digest) (bool, error) {
	f, err := faultinject.Open(s.fs, p)
	if err != nil {
		return false, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return false, err
	}
	return digest.FromHash(h) == d, nil
}

// quarantine moves p into quarantine/ as <n>-<name>, n the first from
// the repair's count up that no earlier file there holds.
func (s *DiskStore) quarantine(p string, n int) error {
	if err := s.fs.MkdirAll(s.quarantineDir(), 0o755); err != nil {
		return fmt.Errorf("distrib: fsck: creating quarantine dir: %w", err)
	}
	dst := ""
	for taken := true; taken; n++ {
		dst = filepath.Join(s.quarantineDir(), fmt.Sprintf("%d-%s", n, filepath.Base(p)))
		_, err := s.fs.Stat(dst)
		taken = err == nil
	}
	s.mu.Lock()
	err := s.fs.Rename(p, dst)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("distrib: fsck: quarantining %s: %w", p, err)
	}
	return nil
}

// SweepDanglingRefs removes every tag whose manifest blob is missing
// from blobs — the referential half of crash recovery: a ref written
// before its manifest committed must not survive, or every pull of it
// would 500. Returns the removed "name:tag" keys, sorted.
func SweepDanglingRefs(tags TagStore, blobs BlobSource) ([]string, error) {
	var removed []string
	for key, desc := range tags.All() {
		if blobs.Has(desc.Digest) {
			continue
		}
		name, tag, ok := strings.Cut(key, ":")
		if !ok {
			continue
		}
		if err := tags.Delete(name, tag); err != nil {
			return removed, fmt.Errorf("distrib: sweeping dangling ref %s: %w", key, err)
		}
		removed = append(removed, key)
	}
	sort.Strings(removed)
	return removed, nil
}
