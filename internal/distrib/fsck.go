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

// FsckReport is the outcome of a store consistency scan. The store's
// invariants after a successful Repair:
//
//  1. every addressable path blobs/sha256/ab/<hex> holds content that
//     hashes to sha256:<hex> (no torn or bit-rotted blob is readable);
//  2. the shard directory matches the first two hex characters;
//  3. tmp/ is empty — an interrupted ingest can never be completed, so
//     its spool is garbage by construction;
//  4. nothing is silently deleted: damaged files move to quarantine/
//     for operator inspection, only temp spools are removed outright.
type FsckReport struct {
	// Scanned counts addressable blob files examined.
	Scanned int
	// Corrupt lists blobs whose content does not hash to their name —
	// truncated by a crash mid-rename-window or rotted on disk.
	Corrupt []digest.Digest
	// Misplaced lists addressable paths whose name is not a digest or
	// whose shard directory disagrees with it.
	Misplaced []string
	// OrphanTemps lists temp spool files left by interrupted writes.
	OrphanTemps []string
	// Quarantined and TempsSwept count what Repair acted on; zero
	// after a plain Fsck.
	Quarantined int
	TempsSwept  int
}

// Clean reports whether the scan found nothing wrong.
func (r FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Misplaced) == 0 && len(r.OrphanTemps) == 0
}

// String renders the report as a one-line operator summary.
func (r FsckReport) String() string {
	return fmt.Sprintf("fsck: %d blobs scanned, %d corrupt, %d misplaced, %d orphan temps (%d quarantined, %d temps swept)",
		r.Scanned, len(r.Corrupt), len(r.Misplaced), len(r.OrphanTemps), r.Quarantined, r.TempsSwept)
}

// Fsck scans the store read-only: it rehashes every addressable blob
// against its name, checks shard placement, and lists orphaned temp
// files. Nothing is modified; run Repair to act on the findings.
func (s *DiskStore) Fsck() (FsckReport, error) {
	var rep FsckReport
	shards, err := os.ReadDir(s.blobRoot())
	if err != nil {
		return rep, fmt.Errorf("distrib: fsck: reading blob root: %w", err)
	}
	for _, shard := range shards {
		shardDir := filepath.Join(s.blobRoot(), shard.Name())
		if !shard.IsDir() {
			rep.Misplaced = append(rep.Misplaced, shardDir)
			continue
		}
		files, err := os.ReadDir(shardDir)
		if err != nil {
			return rep, fmt.Errorf("distrib: fsck: reading shard %s: %w", shard.Name(), err)
		}
		for _, f := range files {
			p := filepath.Join(shardDir, f.Name())
			d, perr := digest.FromHex(f.Name())
			if perr != nil || f.IsDir() || !strings.HasPrefix(f.Name(), shard.Name()) {
				rep.Misplaced = append(rep.Misplaced, p)
				continue
			}
			rep.Scanned++
			ok, herr := s.rehash(p, d)
			if herr != nil {
				return rep, fmt.Errorf("distrib: fsck: rehashing %s: %w", d.Short(), herr)
			}
			if !ok {
				rep.Corrupt = append(rep.Corrupt, d)
			}
		}
	}
	temps, err := os.ReadDir(s.tmpDir())
	if err != nil && !os.IsNotExist(err) {
		return rep, fmt.Errorf("distrib: fsck: reading tmp dir: %w", err)
	}
	for _, t := range temps {
		rep.OrphanTemps = append(rep.OrphanTemps, filepath.Join(s.tmpDir(), t.Name()))
	}
	sort.Slice(rep.Corrupt, func(i, j int) bool { return rep.Corrupt[i] < rep.Corrupt[j] })
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

// Repair runs Fsck and then restores the store invariants: corrupt and
// misplaced files are moved into quarantine/ (never deleted — an
// operator may still want the bytes), and orphaned temp spools are
// removed. It runs automatically on store open and behind the
// comtainer-registry -fsck flag.
func (s *DiskStore) Repair() (FsckReport, error) {
	rep, err := s.Fsck()
	if err != nil {
		return rep, err
	}
	if rep.Clean() {
		return rep, nil
	}
	var damaged []string
	for _, d := range rep.Corrupt {
		damaged = append(damaged, s.blobPath(d))
	}
	damaged = append(damaged, rep.Misplaced...)
	if len(damaged) > 0 {
		if err := s.fs.MkdirAll(s.quarantineDir(), 0o755); err != nil {
			return rep, fmt.Errorf("distrib: fsck: creating quarantine dir: %w", err)
		}
	}
	for i, p := range damaged {
		// The index prefix keeps same-named files from two repairs (or
		// a shard dir and a blob) from colliding in the flat directory.
		dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%d-%s", i, filepath.Base(p)))
		s.mu.Lock()
		err := s.fs.Rename(p, dst)
		s.mu.Unlock()
		if err != nil {
			return rep, fmt.Errorf("distrib: fsck: quarantining %s: %w", p, err)
		}
		rep.Quarantined++
	}
	for _, p := range rep.OrphanTemps {
		if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("distrib: fsck: sweeping temp %s: %w", p, err)
		}
		rep.TempsSwept++
	}
	return rep, nil
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
