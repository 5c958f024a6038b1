package actioncache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// TestDiskCacheReputWritesNothing: append-only must not turn the re-put
// of a stored value into growth; a changed value is appended.
func TestDiskCacheReputWritesNothing(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key("manifest"), []byte("inputs-v1")); err != nil {
		t.Fatal(err)
	}
	before := diskBytes(t, dir)
	for _, c := range []*DiskCache{c, mustReopen(t, dir)} {
		if err := c.Put(key("manifest"), []byte("inputs-v1")); err != nil {
			t.Fatal(err)
		}
	}
	if after := diskBytes(t, dir); after != before || len(segmentFiles(t, dir)) != 1 {
		t.Fatalf("re-put grew the cache from %d to %d bytes in %d segments", before, after, len(segmentFiles(t, dir)))
	}
	if err := c.Put(key("manifest"), []byte("inputs-v2")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := c.Get(key("manifest")); string(got) != "inputs-v2" || diskBytes(t, dir) <= before {
		t.Fatalf("changed value not appended: Get = %q, %d bytes on disk", got, diskBytes(t, dir))
	}
}

func mustReopen(t testing.TB, dir string) *DiskCache {
	t.Helper()
	c, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDiskCacheSweepsOldLayout: a COMT-AC1 entries/ tree found at open
// is removed, not read.
func TestDiskCacheSweepsOldLayout(t *testing.T) {
	dir := t.TempDir()
	k := key("old")
	shard := filepath.Join(dir, "entries", "sha256", k.Hex()[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	entry := "COMT-AC1 " + string(digest.FromString("v")) + "\nv"
	for _, name := range []string{k.Hex(), "put-123"} {
		if err := os.WriteFile(filepath.Join(shard, name), []byte(entry), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	c := mustReopen(t, dir)
	if _, ok, _ := c.Get(k); ok || len(c.index) != 0 {
		t.Fatalf("old-layout entry served (%v) or indexed (%d)", ok, len(c.index))
	}
	if _, err := os.Stat(filepath.Join(dir, "entries")); !os.IsNotExist(err) {
		t.Fatalf("entries/ survived the open: %v", err)
	}
}

// TestDiskCacheTwoOpeners: two caches over one directory, written from
// several goroutines each, never share a file; a third opener serves
// the union. Part of check.sh's -race -count=10 shared-state step.
func TestDiskCacheTwoOpeners(t *testing.T) {
	dir := t.TempDir()
	const writers, each = 4, 25
	val := func(o, g, i int) []byte { return []byte(fmt.Sprintf("opener %d writer %d value %d", o, g, i)) }
	var wg sync.WaitGroup
	for o := 0; o < 2; o++ {
		c := mustReopen(t, dir)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(o, g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					k := key(fmt.Sprintf("%d/%d/%d", o, g, i))
					if err := c.Put(k, val(o, g, i)); err != nil {
						t.Error(err)
					}
					// Both openers also write one shared key each round.
					if err := c.Put(key(fmt.Sprintf("shared/%d", i)), []byte("same everywhere")); err != nil {
						t.Error(err)
					}
					if got, ok, _ := c.Get(k); !ok || !bytes.Equal(got, val(o, g, i)) {
						t.Errorf("own Put %d/%d/%d not served back", o, g, i)
					}
				}
			}(o, g)
		}
	}
	wg.Wait()
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Fatalf("%d segment files for two openers", n)
	}
	third := mustReopen(t, dir)
	if want := 2*writers*each + each; len(third.index) != want {
		t.Fatalf("third opener indexed %d entries, want %d", len(third.index), want)
	}
	for o := 0; o < 2; o++ {
		for g := 0; g < writers; g++ {
			for i := 0; i < each; i++ {
				if got, ok, _ := third.Get(key(fmt.Sprintf("%d/%d/%d", o, g, i))); !ok || !bytes.Equal(got, val(o, g, i)) {
					t.Fatalf("third opener lost %d/%d/%d", o, g, i)
				}
			}
		}
	}
	if s := third.Stats(); s.Errors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskCacheDescriptorBound: descriptors held do not grow with the
// number of segments — a thousand comtainer rebuild runs leave a
// thousand small segments, and reading them all must not need a
// thousand descriptors.
func TestDiskCacheDescriptorBound(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		rec := testRecord(key(fmt.Sprint(i)), []byte(fmt.Sprint("value ", i)))
		if err := os.WriteFile(filepath.Join(dir, "segments", fmt.Sprintf("%019d-1", i)), rec, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	before := fds()
	c := mustReopen(t, dir)
	peak := fds()
	for i := 0; i < n; i++ {
		if got, ok, _ := c.Get(key(fmt.Sprint(i))); !ok || string(got) != fmt.Sprint("value ", i) {
			t.Fatalf("segment %d not served", i)
		}
		if i%100 == 0 {
			peak = max(peak, fds())
		}
	}
	if err := c.Put(key("own"), []byte("one more")); err != nil {
		t.Fatal(err)
	}
	// The opener's own segment, plus slack for the runtime's own.
	if peak = max(peak, fds()); peak > before+3 {
		t.Fatalf("%d descriptors open over %d segments, %d before the cache opened", peak, n, before)
	}
}

// TestDiskCacheSeamOperations is the deterministic form of "a Put is an
// append": operations through the FS seam are counted, not timed. N
// Puts cost N writes and create one file; a Get opens the segment and
// reads the record — whoever wrote it — and writes no metadata; putting
// what is stored costs nothing.
func TestDiskCacheSeamOperations(t *testing.T) {
	dir := t.TempDir()
	plan := faultinject.NewPlan(1)
	c, err := NewDiskCacheFS(dir, 0, faultinject.NewFS(faultinject.OS(), plan))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	step := func(what string, atMost int64, do func(i int)) {
		t.Helper()
		before := plan.Ops()
		for i := 0; i < n; i++ {
			do(i)
		}
		if ops := plan.Ops() - before; ops > atMost {
			t.Fatalf("%d %s cost %d file-system operations, want at most %d", n, what, ops, atMost)
		}
	}
	put := func(c *DiskCache) func(int) {
		return func(i int) {
			if err := c.Put(key(fmt.Sprint("k", i)), []byte(fmt.Sprint("v", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	get := func(c *DiskCache) func(int) {
		return func(i int) {
			if got, ok, _ := c.Get(key(fmt.Sprint("k", i))); !ok || string(got) != fmt.Sprint("v", i) {
				t.Fatalf("k%d not served", i)
			}
		}
	}
	step("Puts", n+1, put(c)) // one create
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Fatalf("%d Puts created %d files", n, len(segs))
	}
	step("Gets of the opener's own records", 2*n, get(c))
	step("Puts of what is stored", 0, put(c))

	// Another opener pays the same per Get, refreshes the segment's
	// mtime once, and creates nothing.
	before := plan.Ops()
	re, err := NewDiskCacheFS(dir, 0, faultinject.NewFS(faultinject.OS(), plan))
	if err != nil {
		t.Fatal(err)
	}
	// Opening reads each record's header and no payload: the old-layout
	// sweep, the mkdir, one open per segment, one read per record.
	if ops := plan.Ops() - before; ops > n+3 {
		t.Fatalf("opening a cache of %d records cost %d file-system operations, want at most %d", n, ops, n+3)
	}
	step("Gets of another opener's records", 2*n+1, get(re))
	step("Puts of what another opener stored", 0, put(re))
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Fatalf("an opener that stored nothing left %d files", len(segs))
	}
}

// TestDiskCacheEnumeratedCrashPoints cuts the power at every
// file-system operation of a run of twenty Puts in turn — enumerated,
// where TestDiskCacheCrashRestartVerify samples — and requires of the
// reopened cache that every acknowledged Put is served byte-identical
// and no unacknowledged one is served at all.
func TestDiskCacheEnumeratedCrashPoints(t *testing.T) {
	const puts = 20
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 40+17*i) }
	// run drives the Puts through plan and returns the acknowledged ones.
	run := func(dir string, plan *faultinject.Plan) map[int]bool {
		acked := make(map[int]bool)
		c, err := NewDiskCacheFS(dir, 0, faultinject.NewFS(faultinject.OS(), plan))
		if err != nil {
			return acked
		}
		for i := 0; i < puts; i++ {
			if c.Put(key(fmt.Sprint("crash-", i)), val(i)) == nil {
				acked[i] = true
			}
		}
		return acked
	}
	clean := faultinject.NewPlan(1)
	if acked := run(t.TempDir(), clean); len(acked) != puts {
		t.Fatalf("clean run acknowledged %d of %d Puts", len(acked), puts)
	}
	total := clean.Ops()
	if total < puts {
		t.Fatalf("clean run made %d operations for %d Puts", total, puts)
	}
	for n := int64(1); n <= total; n++ {
		dir := t.TempDir()
		acked := run(dir, faultinject.NewPlan(1).At(n, faultinject.PowerCut))
		re := mustReopen(t, dir)
		for i := 0; i < puts; i++ {
			got, ok, err := re.Get(key(fmt.Sprint("crash-", i)))
			switch {
			case err != nil:
				t.Fatalf("cut at %d: Get %d: %v", n, i, err)
			case acked[i] && (!ok || !bytes.Equal(got, val(i))):
				t.Fatalf("cut at operation %d of %d: acknowledged Put %d lost or changed (found %v)", n, total, i, ok)
			case !acked[i] && ok:
				t.Fatalf("cut at operation %d of %d: unacknowledged Put %d served", n, total, i)
			}
		}
		if s := re.Stats(); s.Errors != 0 {
			t.Fatalf("cut at %d: reopened cache counted errors: %+v", n, s)
		}
	}
}

// BenchmarkDiskCacheOpen: opening a cache costs its records, not its
// bytes — 2,000 records of 32 KiB, 64 MiB on disk.
func BenchmarkDiskCacheOpen(b *testing.B) {
	dir := b.TempDir()
	c := mustReopen(b, dir)
	val := bytes.Repeat([]byte("p"), 32<<10)
	for i := 0; i < 2000; i++ {
		if err := c.Put(key(fmt.Sprint(i)), append(val, byte(i), byte(i>>8))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustReopen(b, dir)
	}
}
