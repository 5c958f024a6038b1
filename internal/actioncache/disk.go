package actioncache

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// DiskCache is the local tier: entries sharded on disk as
// entries/sha256/ab/<keyhex> (the same layout as distrib.DiskStore's
// blob tree), written atomically via temp file + rename, verified
// against an embedded payload digest on every read, and evicted
// least-recently-used when a byte cap is set.
//
// The temp file of a Put lives in the entry's own shard directory, not
// in one spool shared by the whole cache: concurrent Puts (the rebuild
// runs one per worker) then create and rename under 256 directory
// locks instead of queueing on one, and the rename never crosses
// directories.
//
// Recency survives restarts through file mtimes: Get touches the
// entry, and reopening a cache seeds its LRU order from the mtimes on
// disk. Safe for concurrent use.
type DiskCache struct {
	root     string
	maxBytes int64 // 0 = unbounded
	fs       faultinject.FS

	mu  sync.Mutex
	lru cachekit.LRU[digest.Digest] // entry file sizes, in recency order

	hits, misses, evictions, evictedBytes, errors atomic.Int64
}

// entryMagic precedes every entry: "COMT-AC1 <payload digest>\n".
const entryMagic = "COMT-AC1 "

// NewDiskCache opens (creating if needed) a cache rooted at dir,
// clears stale temp files, and indexes existing entries. maxBytes of
// 0 disables eviction.
func NewDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	return NewDiskCacheFS(dir, maxBytes, faultinject.OS())
}

// NewDiskCacheFS is NewDiskCache writing through fsys — the hook chaos
// tests use to inject write faults and power cuts.
func NewDiskCacheFS(dir string, maxBytes int64, fsys faultinject.FS) (*DiskCache, error) {
	c := &DiskCache{
		root:     dir,
		maxBytes: maxBytes,
		fs:       fsys,
	}
	if err := fsys.MkdirAll(c.entriesDir(), 0o755); err != nil {
		return nil, fmt.Errorf("actioncache: creating %s: %w", c.entriesDir(), err)
	}
	if err := c.index(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *DiskCache) entriesDir() string { return filepath.Join(c.root, "entries", "sha256") }

func (c *DiskCache) entryPath(key digest.Digest) string {
	hex := key.Hex()
	return filepath.Join(c.entriesDir(), hex[:2], hex)
}

// tempPrefix starts the name of a Put's temp file, which sits beside
// its entry.
const tempPrefix = "put-"

// index scans the entry tree, seeds the LRU order from mtimes and
// removes the temp files it meets: one left behind is an interrupted
// write from a dead process and can never be completed.
func (c *DiskCache) index() error {
	type found struct {
		key  digest.Digest
		size int64
		mod  time.Time
	}
	var all []found
	base := c.entriesDir()
	err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), tempPrefix) {
			if err := c.fs.Remove(p); err != nil {
				return fmt.Errorf("sweeping temp %s: %w", d.Name(), err)
			}
			return nil
		}
		key, perr := digest.FromHex(d.Name())
		if perr != nil {
			return nil // foreign file; leave it alone
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		all = append(all, found{key: key, size: info.Size(), mod: info.ModTime()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("actioncache: indexing %s: %w", base, err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod.Before(all[j].mod) })
	// index only runs from the constructor, but taking the lock keeps
	// the invariant uniform: every mutation of the index holds c.mu,
	// with no constructor-phase carve-out to reason about.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range all {
		c.lru.Add(f.key, f.size)
	}
	return nil
}

// Get returns the entry under key, verifying its embedded payload
// digest. A corrupt entry is deleted and reported as a miss.
func (c *DiskCache) Get(key digest.Digest) ([]byte, bool, error) {
	c.mu.Lock()
	known := c.lru.Touch(key)
	c.mu.Unlock()
	if !known {
		c.misses.Add(1)
		return nil, false, nil
	}

	p := c.entryPath(key)
	raw, err := c.readEntry(p)
	if err != nil {
		c.drop(key)
		c.errors.Add(1)
		c.misses.Add(1)
		return nil, false, nil
	}
	val, err := decodeEntry(raw)
	if err != nil {
		// Bit rot or a truncated write: self-heal by discarding.
		c.fs.Remove(p)
		c.drop(key)
		c.errors.Add(1)
		c.misses.Add(1)
		return nil, false, nil
	}
	now := time.Now()
	os.Chtimes(p, now, now) // persist recency; best-effort
	c.hits.Add(1)
	return val, true, nil
}

// readEntry slurps an entry file through the FS seam.
func (c *DiskCache) readEntry(p string) ([]byte, error) {
	f, err := c.fs.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Put stores val under key atomically and evicts LRU entries if the
// cache exceeds its cap.
func (c *DiskCache) Put(key digest.Digest, val []byte) error {
	if err := key.Validate(); err != nil {
		return fmt.Errorf("actioncache: invalid key: %w", err)
	}
	data := encodeEntry(val)
	p := c.entryPath(key)
	if err := c.fs.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		c.errors.Add(1)
		return fmt.Errorf("actioncache: creating shard dir: %w", err)
	}
	if err := faultinject.Commit(c.fs, p, tempPrefix, data, 0); err != nil {
		c.errors.Add(1)
		return fmt.Errorf("actioncache: writing entry: %w", err)
	}

	// Evict never takes the most recently used entry, so the one just
	// written stays even when it alone exceeds the cap. Victims leave
	// the index here and the disk after the lock is released.
	c.mu.Lock()
	c.lru.Add(key, int64(len(data)))
	victims, freed := c.lru.Evict(c.maxBytes)
	c.mu.Unlock()

	c.evictions.Add(int64(len(victims)))
	c.evictedBytes.Add(freed)
	for _, v := range victims {
		c.fs.Remove(c.entryPath(v))
	}
	return nil
}

// drop removes key from the index (the file is already gone or about
// to be).
func (c *DiskCache) drop(key digest.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Remove(key)
}

// Len returns the number of indexed entries.
func (c *DiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Size returns the total indexed entry bytes.
func (c *DiskCache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Size()
}

// Stats reports the disk tier's counters.
func (c *DiskCache) Stats() Stats {
	return Stats{
		LocalHits:   c.hits.Load(),
		LocalMisses: c.misses.Load(),
		Evictions:   c.evictions.Load(),
		EvictedByte: c.evictedBytes.Load(),
		Errors:      c.errors.Load(),
	}
}

func encodeEntry(val []byte) []byte {
	hdr := entryMagic + string(digest.FromBytes(val)) + "\n"
	return append([]byte(hdr), val...)
}

func decodeEntry(raw []byte) ([]byte, error) {
	s := string(raw)
	rest, ok := strings.CutPrefix(s, entryMagic)
	if !ok {
		return nil, fmt.Errorf("actioncache: entry missing magic")
	}
	nl := strings.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("actioncache: entry header truncated")
	}
	want, err := digest.Parse(rest[:nl])
	if err != nil {
		return nil, fmt.Errorf("actioncache: entry header: %w", err)
	}
	val := []byte(rest[nl+1:])
	if !want.Verify(val) {
		return nil, fmt.Errorf("actioncache: entry payload corrupt (want %s)", want.Short())
	}
	return val, nil
}
