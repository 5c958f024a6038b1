package actioncache

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/registry"
)

func key(s string) digest.Digest { return digest.FromString(s) }

func TestDocumentRoundTrip(t *testing.T) {
	man := Manifest{Inputs: []Input{
		{Op: OpRead, Path: "/src/a.c"},
		{Op: OpExists, Path: "/usr/lib/libm.so"},
	}}
	got, err := DecodeManifest(EncodeManifest(man))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Inputs) != 2 || got.Inputs[0] != man.Inputs[0] {
		t.Fatalf("manifest round trip mismatch: %+v", got)
	}
	res := Result{Outputs: []Output{{Path: "/src/a.o", Mode: 0o644, Data: []byte("obj")}}}
	rgot, err := DecodeResult(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if len(rgot.Outputs) != 1 || !bytes.Equal(rgot.Outputs[0].Data, []byte("obj")) {
		t.Fatalf("result round trip mismatch: %+v", rgot)
	}
	if _, err := DecodeManifest(EncodeResult(res)); err == nil {
		t.Fatal("manifest decoder accepted a result document")
	}
}

func TestActionSpecID(t *testing.T) {
	a := ActionSpec{Argv: []string{"gcc", "-c", "a.c"}, Cwd: "/w", March: "x86-64"}
	b := a
	if a.ID() != b.ID() {
		t.Fatal("identical specs got different IDs")
	}
	b.March = "znver4"
	if a.ID() == b.ID() {
		t.Fatal("different march collided")
	}
	if ManifestKey(a.ID()) == ResultKey(a.ID(), nil, nil) {
		t.Fatal("manifest and result key namespaces collide")
	}
}

func TestRecorderSelfOutputNotInput(t *testing.T) {
	rec := NewRecorder()
	rec.NoteInput(OpRead, "/w/app", "old-digest")
	rec.NoteOutput("/w/app", []byte("new"), 0o755)
	rec.NoteInput(OpRead, "/w/app", "new-digest") // re-read of own output: dropped
	res, states := rec.Result()
	if len(res.Inputs) != 1 || states[0] != "old-digest" {
		t.Fatalf("want only the pre-write read, got %+v %v", res.Inputs, states)
	}
}

func TestDiskCacheBasicAndVerify(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := key("k1")
	if err := c.Put(k, []byte("value-1")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(k)
	if err != nil || !ok || string(got) != "value-1" {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	if _, ok, _ := c.Get(key("absent")); ok {
		t.Fatal("hit on absent key")
	}

	// Corrupt the record inside the segment: Get must detect, drop and
	// miss — once; the second lookup finds nothing to verify.
	seg := segmentFiles(t, dir)
	if len(seg) != 1 {
		t.Fatalf("segments = %v, want one", seg)
	}
	raw, _ := os.ReadFile(seg[0])
	if want := testRecord(k, []byte("value-1")); !bytes.Equal(raw, want) {
		t.Fatalf("segment holds %q, want the record %q", raw, want)
	}
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(seg[0], raw, 0o644)
	for i := 0; i < 2; i++ {
		if _, ok, _ := c.Get(k); ok {
			t.Fatal("corrupt record served as a hit")
		}
	}
	s := c.Stats()
	if s.LocalHits != 1 || s.LocalMisses != 3 || s.Errors != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// A fresh Put of the key lands behind the bad record and is served,
	// here and by the next opener.
	if err := c.Put(k, []byte("value-1")); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*DiskCache{c, c2} {
		if got, ok, _ := c.Get(k); !ok || string(got) != "value-1" {
			t.Fatalf("after the re-put Get = %q, %v", got, ok)
		}
	}
}

// segmentFiles lists the segment files of the cache rooted at dir.
func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// diskBytes sums the sizes of the files under the cache's segments/.
func diskBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var n int64
	for _, p := range segmentFiles(t, dir) {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// testRecord spells the COMT-AC2 record of val under k, independently
// of Put.
func testRecord(k digest.Digest, val []byte) []byte {
	return []byte(fmt.Sprintf("COMT-AC2 %s %d %s\n%s", k, len(val), digest.FromBytes(val), val))
}

func TestDiskCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewDiskCache(dir, 0)
	if err := c.Put(key("p"), []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ := c2.Get(key("p"))
	if !ok || string(got) != "persisted" {
		t.Fatalf("reopened cache lost the entry: %q %v", got, ok)
	}
	if len(c2.index) != 1 {
		t.Fatalf("Len = %d", len(c2.index))
	}

	// Later records win over earlier ones of a key, newer segments over
	// older: c rewrites p in its segment, c2 then writes it in a newer one.
	if err := c.Put(key("p"), []byte("second")); err != nil {
		t.Fatal(err)
	}
	if c3, _ := NewDiskCache(dir, 0); c3 != nil {
		if got, _, _ := c3.Get(key("p")); string(got) != "second" {
			t.Fatalf("later record of one segment lost to an earlier one: %q", got)
		}
	}
	if err := c2.Put(key("p"), []byte("third")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key("q"), []byte("older segment, later write")); err != nil {
		t.Fatal(err)
	}
	c4, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := c4.Get(key("p")); string(got) != "third" {
		t.Fatalf("newer segment lost to an older one: %q", got)
	}
	if n := len(segmentFiles(t, dir)); n != 2 || len(c4.index) != 2 {
		t.Fatalf("%d segments, %d entries; want 2 and 2", n, len(c4.index))
	}
}

func TestDiskCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// A cap of three records: a record is more than an eighth of it, so
	// every Put seals its segment and eviction is per entry.
	val := bytes.Repeat([]byte("x"), 64)
	size := int64(len(testRecord(key("e0"), val)))
	c, _ := NewDiskCache(dir, 3*size)
	for i := 0; i < 3; i++ {
		if err := c.Put(key(fmt.Sprintf("e%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Touch e0 so e1 becomes LRU, then insert a fourth entry.
	if _, ok, _ := c.Get(key("e0")); !ok {
		t.Fatal("e0 missing before eviction")
	}
	if err := c.Put(key("e3"), val); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(key("e1")); ok {
		t.Fatal("LRU entry e1 survived eviction")
	}
	for _, k := range []string{"e0", "e2", "e3"} {
		if _, ok, _ := c.Get(key(k)); !ok {
			t.Fatalf("%s evicted but was not LRU", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.EvictedByte != size {
		t.Fatalf("eviction not counted: %+v", s)
	}
	if n := len(segmentFiles(t, dir)); n != 3 {
		t.Fatalf("%d segment files, want 3", n)
	}

	// Recency survives a reopen through the segments' mtimes, and a cap
	// lowered between runs applies at open, sparing no segment.
	past := time.Now().Add(-time.Hour)
	for _, p := range segmentFiles(t, dir) {
		os.Chtimes(p, past, past)
	}
	re, _ := NewDiskCache(dir, 3*size)
	if _, ok, _ := re.Get(key("e2")); !ok {
		t.Fatal("e2 missing after reopen")
	}
	re, _ = NewDiskCache(dir, size)
	if _, ok, _ := re.Get(key("e2")); !ok || len(re.index) != 1 {
		t.Fatalf("reopen under a one-record cap kept %d entries, e2 among them: %v", len(re.index), ok)
	}
	if re, _ = NewDiskCache(dir, size-1); len(re.index) != 0 || diskBytes(t, dir) != 0 {
		t.Fatalf("reopen under a cap below the last segment kept %d entries, %d bytes", len(re.index), diskBytes(t, dir))
	}
}

// TestDiskCacheCapBoundsDiskBytes: under a cap many records wide a
// segment is sealed at an eighth of it, and what the cap bounds is
// bytes on disk — the dead records of rewritten keys included — after
// every Put.
func TestDiskCacheCapBoundsDiskBytes(t *testing.T) {
	dir := t.TempDir()
	size := int64(len(testRecord(key("k00"), make([]byte, 100))))
	capBytes := 40 * size
	c, err := NewDiskCache(dir, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 100)
		if err := c.Put(key(fmt.Sprintf("k%02d", i%10)), val); err != nil { // ten keys, rewritten forty times
			t.Fatal(err)
		}
		if n := diskBytes(t, dir); n > capBytes {
			t.Fatalf("after Put %d: %d bytes on disk, cap %d", i, n, capBytes)
		}
		if got, ok, _ := c.Get(key(fmt.Sprintf("k%02d", i%10))); !ok || !bytes.Equal(got, val) {
			t.Fatalf("Put %d not served back", i)
		}
	}
	// Five records seal a segment (40/8): the cap holds eight of those.
	if n := len(segmentFiles(t, dir)); n < 7 || n > 8 {
		t.Fatalf("%d segments under a cap of eight sealed ones", n)
	}
	if s := c.Stats(); s.EvictedByte == 0 {
		t.Fatalf("nothing evicted: %+v", s)
	}
}

func TestRemoteCache(t *testing.T) {
	ts := httptest.NewServer(registry.NewServer().Handler())
	defer ts.Close()
	c := NewRemoteCache(ts.URL, "")

	if _, ok, err := c.Get(key("absent")); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	if err := c.Put(key("r1"), []byte("remote-value")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key("r1"))
	if err != nil || !ok || string(got) != "remote-value" {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	s := c.Stats()
	if s.RemoteHits != 1 || s.RemoteMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTieredPushThrough(t *testing.T) {
	ts := httptest.NewServer(registry.NewServer().Handler())
	defer ts.Close()
	remote := NewRemoteCache(ts.URL, "")
	local, _ := NewDiskCache(t.TempDir(), 0)
	tiers := NewTiered(local, remote)

	// Seed only the remote, as a second machine would have.
	if err := remote.Put(key("shared"), []byte("fleet-wide")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tiers.Get(key("shared"))
	if err != nil || !ok || string(got) != "fleet-wide" {
		t.Fatalf("tiered Get = %q, %v, %v", got, ok, err)
	}
	// The hit must have filled the local tier.
	if _, ok, _ := local.Get(key("shared")); !ok {
		t.Fatal("remote hit not pushed through to local tier")
	}
	if s := tiers.Stats(); s.RemoteFills != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// Put writes both tiers.
	if err := tiers.Put(key("both"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := local.Get(key("both")); !ok {
		t.Fatal("Put skipped local tier")
	}
	if _, ok, _ := remote.Get(key("both")); !ok {
		t.Fatal("Put skipped remote tier")
	}
}

func TestNewTieredDegenerate(t *testing.T) {
	local, _ := NewDiskCache(t.TempDir(), 0)
	if NewTiered(nil, nil) != nil {
		t.Fatal("two nil tiers should collapse to nil")
	}
	if c := NewTiered(local, nil); c != Cache(local) {
		t.Fatal("single tier should be returned unwrapped")
	}
}

// mapState serves input states from a fixed map (simulating FS content).
type mapState map[Input]string

func (m mapState) StateOf(in Input) string { return m[in] }

func TestMemoizerHitMissAndInvalidation(t *testing.T) {
	local, _ := NewDiskCache(t.TempDir(), 0)
	m := NewMemoizer(local)
	id := ActionSpec{Argv: []string{"cc", "-c", "a.c"}, Cwd: "/w"}.ID()
	in := Input{Op: OpRead, Path: "/w/a.c"}

	execs := 0
	exec := func(content string) func(*Recorder) error {
		return func(rec *Recorder) error {
			execs++
			rec.NoteInput(OpRead, "/w/a.c", content)
			rec.NoteOutput("/w/a.o", []byte("obj-"+content), 0o644)
			return nil
		}
	}

	// Cold: executes.
	if _, replay, err := m.Do(id, mapState{in: "v1"}, exec("v1")); err != nil || replay {
		t.Fatalf("cold: replay=%v err=%v", replay, err)
	}
	// Warm, same input state: replays.
	res, replay, err := m.Do(id, mapState{in: "v1"}, exec("v1"))
	if err != nil || !replay {
		t.Fatalf("warm: replay=%v err=%v", replay, err)
	}
	if len(res.Outputs) != 1 || string(res.Outputs[0].Data) != "obj-v1" {
		t.Fatalf("warm result = %+v", res)
	}
	// Changed input: the result key changes, so it executes again.
	if _, replay, err := m.Do(id, mapState{in: "v2"}, exec("v2")); err != nil || replay {
		t.Fatalf("invalidated: replay=%v err=%v", replay, err)
	}
	if execs != 2 {
		t.Fatalf("execs = %d, want 2", execs)
	}
	s := m.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemoizerErrorsNotCached(t *testing.T) {
	local, _ := NewDiskCache(t.TempDir(), 0)
	m := NewMemoizer(local)
	id := key("failing-action")
	boom := fmt.Errorf("boom")
	if _, _, err := m.Do(id, mapState{}, func(*Recorder) error { return boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	// Must execute again, not replay the failure.
	ran := false
	if _, replay, err := m.Do(id, mapState{}, func(*Recorder) error { ran = true; return nil }); err != nil || replay {
		t.Fatalf("replay=%v err=%v", replay, err)
	}
	if !ran {
		t.Fatal("second attempt did not execute")
	}
}

func TestMemoizerSingleflight(t *testing.T) {
	local, _ := NewDiskCache(t.TempDir(), 0)
	m := NewMemoizer(local)
	id := key("contended-action")

	var execs atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := m.Do(id, mapState{}, func(rec *Recorder) error {
				execs.Add(1)
				<-release
				rec.NoteOutput("/out", []byte("x"), 0o644)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Let everyone pile onto the flight, then release the executor.
	for m.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("execs = %d, want 1 (singleflight)", got)
	}
	if s := m.Stats(); s.Deduped == 0 {
		t.Fatalf("no dedups counted: %+v", s)
	}
}

func TestNilMemoizerExecutes(t *testing.T) {
	var m *Memoizer
	ran := false
	if _, replay, err := m.Do(key("x"), nil, func(*Recorder) error { ran = true; return nil }); err != nil || replay || !ran {
		t.Fatalf("nil memoizer: ran=%v replay=%v err=%v", ran, replay, err)
	}
}

// mapCache is an in-memory tier.
type mapCache map[digest.Digest][]byte

func (c mapCache) Get(k digest.Digest) ([]byte, bool, error) { v, ok := c[k]; return v, ok, nil }
func (c mapCache) Put(k digest.Digest, v []byte) error       { c[k] = append([]byte(nil), v...); return nil }
func (c mapCache) Stats() Stats                              { return Stats{} }

// TestStoredDocumentsGolden pins what one fixed action leaves in a
// cache: the two keys and the bytes under them, as the commit that
// introduced the formats wrote them. While it passes, a cache filled
// by any earlier build of this package is a full hit for this one.
func TestStoredDocumentsGolden(t *testing.T) {
	const (
		manifestKey = "sha256:a440abd2768eb91449f1c7490234a29abb40e8a063ff41a4b9791cacf6929b08"
		manifestDoc = "#!COMT-ACTION-MANIFEST\n" + `{"inputs":[{"op":"read","path":"/src/main.c"},{"op":"exists","path":"/src/main.h"},{"op":"resolve","path":"/usr/lib/libc.so"}]}`
		resultKey   = "sha256:65353509ebdf921405f140b84a29a233c0a3354a63aa8734030d8c1b3b914070"
		resultDoc   = "#!COMT-ACTION-RESULT\n" + `{"outputs":[{"path":"/src/main.d","mode":384,"data":"bWFpbi5vOiBtYWluLmMK"},{"path":"/src/main.o","mode":420,"data":"b2JqAAH/"}]}`
	)
	spec := ActionSpec{
		Argv: []string{"gcc", "-O2", "-c", "main.c", "-o", "main.o"}, Cwd: "/src",
		Toolchain: "sha256:tc", TargetISA: "x86", March: "x86-64", OptLevel: "2",
	}
	src := []byte("int main(){return 0;}\n")
	exec := func(rec *Recorder) error {
		rec.NoteInput(OpResolve, "/usr/lib/libc.so", ResolveState("/usr/lib/libc.so.6", nil))
		rec.NoteInput(OpRead, "/src/main.c", ReadState(src, nil))
		rec.NoteInput(OpExists, "/src/main.h", ExistsState(false))
		rec.NoteOutput("/src/main.o", []byte("obj\x00\x01\xff"), 0o644)
		rec.NoteOutput("/src/main.d", []byte("main.o: main.c\n"), 0o600)
		return nil
	}
	stored := mapCache{}
	executed, replay, err := NewMemoizer(stored).Do(spec.ID(), nil, exec)
	if err != nil || replay {
		t.Fatalf("cold Do: replay=%v err=%v", replay, err)
	}
	if len(stored) != 2 || string(stored[manifestKey]) != manifestDoc || string(stored[resultKey]) != resultDoc {
		t.Fatalf("stored entries moved:\n%q", stored)
	}
	if got := ManifestKey(spec.ID()); got != manifestKey {
		t.Errorf("ManifestKey = %s, want %s", got, manifestKey)
	}

	// The other direction: a cache holding exactly those bytes answers,
	// and the replayed record is the executed one, inputs included.
	filled := mapCache{manifestKey: []byte(manifestDoc), resultKey: []byte(resultDoc)}
	state := mapState{
		{OpRead, "/src/main.c"}:         ReadState(src, nil),
		{OpExists, "/src/main.h"}:       ExistsState(false),
		{OpResolve, "/usr/lib/libc.so"}: ResolveState("/usr/lib/libc.so.6", nil),
	}
	replayed, replay, err := NewMemoizer(filled).Do(spec.ID(), state, func(*Recorder) error {
		t.Error("executed an action the cache holds")
		return nil
	})
	if err != nil || !replay {
		t.Fatalf("warm Do: replay=%v err=%v", replay, err)
	}
	if !reflect.DeepEqual(replayed, executed) || len(replayed.Inputs) != 3 {
		t.Errorf("replayed record %+v, executed %+v", replayed, executed)
	}
	// On the farm's wire the same encoder carries the inputs along.
	wire, err := DecodeResult(EncodeResult(*executed))
	if err != nil || !reflect.DeepEqual(&wire, executed) {
		t.Errorf("record did not survive the wire: %+v (%v)", wire, err)
	}
}

// TestNilCacheDoEncodesNothing: a memoizer without a tier (the
// farm-mode executor's, a worker's without a shared cache) must not
// marshal documents nobody stores. One copy of the outputs is the
// Recorder's; everything else Do allocates stays below their size,
// where a JSON+base64 encoding is 4/3 of it before buffer growth.
func TestNilCacheDoEncodesNothing(t *testing.T) {
	out := bytes.Repeat([]byte("o"), 4<<20)
	m := NewMemoizer(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := m.Do(key("big-output"), nil, func(rec *Recorder) error {
		rec.NoteOutput("/out", out, 0o644)
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil || len(res.Outputs) != 1 {
		t.Fatalf("Do: %+v, %v", res, err)
	}
	if extra := int64(after.TotalAlloc-before.TotalAlloc) - int64(len(out)); extra >= int64(len(out)) {
		t.Fatalf("nil-cache Do allocated %d bytes beyond the recorder's copy of a %d-byte output", extra, len(out))
	}
}
