package actioncache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// DiskCache is the local tier: an append-only log of records in segment
// files under <dir>/segments/ (layout COMT-AC2), indexed in memory.
//
// A cache promises integrity, not durability. It never syncs: a crash
// may cost a suffix of the dying process's own segment, nothing else.
// Every read is verified against the payload digest in the record's
// on-disk header, so no wrong byte is served. Keys are content-derived
// (ManifestKey, ResultKey): any record ever put under a key is a sound
// answer for it, so openers need not synchronise.
//
// Each opener that writes appends to a segment of its own; two never
// write one file. What an opener sees of the others is what was on disk
// when it opened: it scans every segment once, stops at the first
// record of each that does not parse (a torn tail, or a live writer's
// next record), and lets later records and newer segments win.
//
// The byte cap counts segment files whole, dead records included, and
// evicts whole segments, least recently used first; recency survives
// restarts through their mtimes. Safe for concurrent use.
type DiskCache struct {
	dir      string // <root>/segments
	maxBytes int64  // 0 = unbounded
	fs       faultinject.FS

	// wmu makes "append the record, then index it" one step, so the
	// index names the record a later scan would find last. Get never
	// takes it: a lookup does not wait behind a Put's write.
	wmu sync.Mutex

	mu     sync.Mutex // guards all below; never held across I/O
	index  map[digest.Digest]record
	lru    cachekit.LRU[*segment]  // by file size, in recency order
	active *segment                // this opener's; nil before its first Put and after a seal
	w      *faultinject.AppendFile // active's handle, the one descriptor held

	hits, misses, evictions, evictedBytes, errors atomic.Int64
}

// segment is one file of the log.
type segment struct {
	path    string
	size    int64
	mod     time.Time
	keys    []digest.Digest // of every record indexed from this file, dead ones included
	touched bool            // written, or its mtime refreshed, by this opener
}

// record locates one header-plus-payload extent; sum is the payload
// digest its header carries.
type record struct {
	seg    *segment
	off, n int64
	sum    digest.Digest
}

const (
	// recordMagic starts a record's header line, "COMT-AC2 <key>
	// <payload length> <payload digest>\n"; the payload follows.
	recordMagic = "COMT-AC2"
	// maxHeader bounds a header line: the magic, two 71-byte digests, a
	// length of at most 19 digits, three spaces and the newline are 173.
	maxHeader = 256
	// sealFraction: under a cap, an opener's segment is closed to
	// appends at maxBytes/sealFraction bytes and its next Put starts
	// another, so that one eviction gives up about an eighth of the
	// cache at most. With no cap a segment grows while its opener writes.
	sealFraction = 8
)

// NewDiskCache opens (creating if needed) a cache rooted at dir and
// indexes the segments it holds. maxBytes of 0 disables eviction.
func NewDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	return NewDiskCacheFS(dir, maxBytes, faultinject.OS())
}

// NewDiskCacheFS is NewDiskCache writing through fsys — the hook chaos
// tests use to inject write faults and power cuts.
func NewDiskCacheFS(dir string, maxBytes int64, fsys faultinject.FS) (*DiskCache, error) {
	c := &DiskCache{dir: filepath.Join(dir, "segments"), maxBytes: maxBytes, fs: fsys}
	// The COMT-AC1 layout, a file per entry under entries/, is swept, not
	// read: a cache is recomputable, and no byte escapes the cap.
	if err := fsys.RemoveAll(filepath.Join(dir, "entries")); err != nil {
		return nil, fmt.Errorf("actioncache: sweeping the COMT-AC1 tree: %w", err)
	}
	if err := fsys.MkdirAll(c.dir, 0o755); err != nil {
		return nil, fmt.Errorf("actioncache: creating %s: %w", c.dir, err)
	}
	ents, err := os.ReadDir(c.dir) // in name order, which is creation order: newer segments win
	if err != nil {
		return nil, fmt.Errorf("actioncache: listing %s: %w", c.dir, err)
	}
	index := make(map[digest.Digest]record)
	var segs []*segment
	for _, d := range ents {
		info, err := d.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		seg := &segment{path: filepath.Join(c.dir, d.Name()), size: info.Size(), mod: info.ModTime()}
		seg.keys = c.scan(seg, info.Size(), index)
		segs = append(segs, seg)
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].mod.Before(segs[j].mod) })

	c.mu.Lock()
	c.index = index
	for _, seg := range segs {
		c.lru.Add(seg, seg.size)
	}
	victims := c.evictLocked()
	// Evict spares the most recently used segment: under Put, the one
	// being written. Nothing is being written yet, so a last segment
	// that alone exceeds the cap goes too.
	if maxBytes > 0 && c.lru.Size() > maxBytes {
		last := segs[len(segs)-1]
		c.lru.Remove(last)
		c.forgetLocked(last)
		victims = append(victims, last)
	}
	c.mu.Unlock()
	c.remove(victims)
	return c, nil
}

// scan indexes the records of the valid prefix of seg's file, size
// bytes long, and returns their keys. It reads headers only, one
// positioned read each — an open costs the cache's records, not its
// bytes — and stops at the first that does not parse or whose payload
// leaves the file. Get verifies payloads.
func (c *DiskCache) scan(seg *segment, size int64, index map[digest.Digest]record) (keys []digest.Digest) {
	f, err := faultinject.Open(c.fs, seg.path)
	if err != nil {
		c.errors.Add(1) // serves nothing; still counted against the cap, and evictable
		return nil
	}
	defer f.Close()
	var buf [maxHeader]byte
	for off := int64(0); off < size; {
		m, _ := f.ReadAt(buf[:], off) // short, with io.EOF, at the end of the file
		line, _, found := bytes.Cut(buf[:m], []byte("\n"))
		key, n, sum, ok := parseHeader(line)
		header := int64(len(line)) + 1
		if !found || !ok || n > size-off-header {
			return keys
		}
		index[key] = record{seg: seg, off: off, n: header + n, sum: sum}
		keys = append(keys, key)
		off += header + n
	}
	return keys
}

// parseHeader parses a record's header line, newline excluded.
func parseHeader(line []byte) (key digest.Digest, n int64, sum digest.Digest, ok bool) {
	f := strings.Split(string(line), " ")
	if len(f) != 4 || f[0] != recordMagic {
		return "", 0, "", false
	}
	key, kerr := digest.Parse(f[1])
	n, nerr := strconv.ParseInt(f[2], 10, 64)
	sum, serr := digest.Parse(f[3])
	return key, n, sum, kerr == nil && nerr == nil && serr == nil && n >= 0
}

// Get returns the entry under key, verified against its header. A
// record that fails is dropped from the index and reported as a miss.
func (c *DiskCache) Get(key digest.Digest) ([]byte, bool, error) {
	c.mu.Lock()
	r, ok := c.index[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false, nil
	}
	seg := r.seg
	c.lru.Touch(seg)
	touch := !seg.touched
	seg.touched = true
	c.mu.Unlock()

	val, err := c.read(key, seg.path, r)
	if err != nil {
		// Bit rot or a truncated file — or, if the record is no longer
		// indexed, a segment evicted since the lookup.
		c.mu.Lock()
		if c.index[key] == r {
			delete(c.index, key)
			c.errors.Add(1)
		}
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false, nil
	}
	if touch { // persist recency, best-effort, once per segment per open
		now := time.Now()
		c.fs.Chtimes(seg.path, now, now)
	}
	c.hits.Add(1)
	return val, true, nil
}

// read fetches r's extent of the segment at path with one positioned
// read and returns the payload once header and payload check out. The
// handle is opened for the read, whoever wrote the segment — as a warm
// rebuild reads it — so descriptors held do not grow with segments.
func (c *DiskCache) read(key digest.Digest, path string, r record) ([]byte, error) {
	f, err := faultinject.Open(c.fs, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, r.n)
	if _, err := f.ReadAt(buf, r.off); err != nil {
		return nil, err
	}
	line, val, _ := bytes.Cut(buf, []byte("\n"))
	k, n, sum, ok := parseHeader(line)
	if !ok || k != key || n != int64(len(val)) || !sum.Verify(val) {
		return nil, fmt.Errorf("actioncache: record of %s corrupt", key.Short())
	}
	return val, nil
}

// Put appends val under key to this opener's segment and applies the
// cap. A value already stored under key is not written again: the
// re-put of an unchanged manifest must not become growth.
func (c *DiskCache) Put(key digest.Digest, val []byte) error {
	if err := key.Validate(); err != nil {
		return fmt.Errorf("actioncache: invalid key: %w", err)
	}
	sum := digest.FromBytes(val)
	rec := append([]byte(fmt.Sprintf("%s %s %d %s\n", recordMagic, key, len(val), sum)), val...)
	sealed, victims, err := c.append(key, sum, rec)
	if err != nil {
		c.errors.Add(1)
		return fmt.Errorf("actioncache: appending record: %w", err)
	}
	if sealed != nil { // files go after the locks are released
		sealed.Close()
	}
	c.remove(victims)
	return nil
}

// append writes and indexes rec, the record of key with payload digest
// sum; it returns the segment's handle if this record sealed it, and
// the segments the cap evicted.
func (c *DiskCache) append(key, sum digest.Digest, rec []byte) (sealed *faultinject.AppendFile, victims []*segment, err error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	old, stored := c.index[key]
	seg, w := c.active, c.w
	c.mu.Unlock()
	if stored && old.sum == sum {
		return nil, nil, nil
	}
	if seg == nil {
		// The name sorts by creation time; CreateTemp's random part
		// makes it one no other opener can pick.
		w, err = faultinject.CreateAppend(c.fs, c.dir, fmt.Sprintf("%019d-*", time.Now().UnixNano()))
		if err != nil {
			return nil, nil, err
		}
		seg = &segment{path: w.Name(), touched: true}
	}
	off, err := w.Append(rec)

	// The segment just written is the most recently used, which Evict
	// never takes: what is being written is never a victim. A segment
	// whose first append failed is kept, for the next Put to write.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active, c.w = seg, w
	if err != nil {
		return nil, nil, err
	}
	seg.size = off + int64(len(rec))
	c.index[key] = record{seg: seg, off: off, n: int64(len(rec)), sum: sum}
	seg.keys = append(seg.keys, key)
	c.lru.Add(seg, seg.size)
	if c.maxBytes > 0 && seg.size >= c.maxBytes/sealFraction {
		c.active, c.w, sealed = nil, nil, w
	}
	return sealed, c.evictLocked(), nil
}

// evictLocked applies the cap: victims leave the LRU and their records
// the index here, under c.mu; the caller removes their files after it.
func (c *DiskCache) evictLocked() []*segment {
	victims, _ := c.lru.Evict(c.maxBytes)
	for _, v := range victims {
		c.forgetLocked(v)
	}
	return victims
}

// forgetLocked unindexes the records of v, a segment that left the LRU.
func (c *DiskCache) forgetLocked(v *segment) {
	for _, k := range v.keys {
		if c.index[k].seg == v {
			delete(c.index, k)
			c.evictions.Add(1)
		}
	}
	c.evictedBytes.Add(v.size)
}

func (c *DiskCache) remove(victims []*segment) {
	for _, v := range victims {
		c.fs.Remove(v.path)
	}
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
