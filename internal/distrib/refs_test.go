package distrib_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/oci"
)

// manifestDesc is a manifest descriptor made from s.
func manifestDesc(s string) oci.Descriptor {
	return oci.Descriptor{MediaType: oci.MediaTypeManifest, Digest: digest.FromString(s), Size: int64(len(s))}
}

func openTags(t *testing.T, dir string) *distrib.DiskTags {
	t.Helper()
	tags, err := distrib.NewDiskTags(dir)
	if err != nil {
		t.Fatalf("opening tags: %v", err)
	}
	t.Cleanup(func() { tags.Close() })
	return tags
}

// reopenAll opens the tag store under dir, which no other open may hold,
// and returns its tags, closing it again.
func reopenAll(t *testing.T, dir string) map[string]oci.Descriptor {
	t.Helper()
	tags, err := distrib.NewDiskTags(dir)
	if err != nil {
		t.Fatalf("reopening tags: %v", err)
	}
	defer tags.Close()
	return tags.All()
}

// syncing is a filesystem whose files' Sync returns *err at once, read
// at each call: a disk that fails every flush or, while *err is nil,
// one that skips them.
type syncing struct {
	faultinject.FS
	err *error
}

type syncingFile struct {
	faultinject.File
	err *error
}

func (f syncingFile) Sync() error { return *f.err }

func (s syncing) OpenFile(name string, flag int, perm fs.FileMode) (faultinject.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncingFile{f, s.err}, nil
}

func (s syncing) CreateTemp(dir, pattern string) (faultinject.File, error) {
	f, err := s.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return syncingFile{f, s.err}, nil
}

// TestDiskTagsUnsyncedWriteIsNotAcknowledged: a Set or Delete is
// acknowledged only once it is durable. Where Sync fails, both return
// the error, and neither the store that made them nor one reopened over
// the directory shows the change.
func TestDiskTagsUnsyncedWriteIsNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	kept := manifestDesc("kept")
	first := openTags(t, dir)
	if err := first.Set("team/app", "v1", kept); err != nil {
		t.Fatal(err)
	}
	first.Close()
	var syncErr error
	failing, err := distrib.NewDiskTagsFS(dir, syncing{faultinject.OS(), &syncErr})
	if err != nil {
		t.Fatal(err)
	}
	defer failing.Close()
	syncErr = syscall.EIO
	if err := failing.Set("team/app", "v2", manifestDesc("lost")); err == nil {
		t.Error("Set acknowledged although its Sync failed")
	}
	if err := failing.Delete("team/app", "v1"); err == nil {
		t.Error("Delete acknowledged although its Sync failed")
	}
	live := failing.All()
	failing.Close() // a reopen needs the directory's lock
	for name, tags := range map[string]map[string]oci.Descriptor{"live": live, "reopened": reopenAll(t, dir)} {
		if got, ok := tags["team/app:v1"]; !ok || got.Digest != kept.Digest {
			t.Errorf("%s store: team/app:v1 = %v (found %v), want the tag the failed Delete left", name, got.Digest, ok)
		}
		if got, ok := tags["team/app:v2"]; ok {
			t.Errorf("%s store: team/app:v2 = %v, set by a Set that failed", name, got.Digest)
		}
	}
}

// tagWrite is one step of TestDiskTagsEnumeratedCrashPoints: a Set of
// desc, or with a nil desc a Delete.
type tagWrite struct {
	name, tag string
	desc      *oci.Descriptor
}

func (w tagWrite) apply(tags distrib.TagStore) error {
	if w.desc == nil {
		return tags.Delete(w.name, w.tag)
	}
	return tags.Set(w.name, w.tag, *w.desc)
}

// TestDiskTagsEnumeratedCrashPoints cuts the power at every file-system
// operation of a run in turn: 20 mixed Sets and Deletes over a
// slash-bearing repository and a tag holding ':', with a reopen after
// the tenth, which rewrites the log without the lines it no longer
// needs. After each cut the directory is reopened over the real
// filesystem. Every acknowledged write holds and no failed one shows,
// save the one the cut interrupted after its line was written whole:
// its Sync never returned, so a crash may keep it or lose it. No file
// but the log and its index.json view is left, beside the temp files of
// view writes under tmp/, which a store's open sweeps.
func TestDiskTagsEnumeratedCrashPoints(t *testing.T) {
	var writes []tagWrite
	for i := 0; i < 20; i++ {
		w := tagWrite{name: []string{"team/app", "app"}[i%2], tag: []string{"v1", "comt:base", "v2"}[i%3]}
		if i%4 != 3 {
			d := manifestDesc(fmt.Sprint("write-", i))
			w.desc = &d
		}
		writes = append(writes, w)
	}
	// run drives the writes through plan and returns those acknowledged
	// and the one in flight when the power went, if any.
	run := func(dir string, plan *faultinject.Plan) (acked []tagWrite, cut *tagWrite) {
		ffs := faultinject.NewFS(faultinject.OS(), plan)
		var tags *distrib.DiskTags
		defer func() {
			if tags != nil {
				tags.Close()
			}
		}()
		for i, w := range writes {
			if i%10 == 0 {
				if tags != nil {
					tags.Close() // the next open takes the directory's lock
				}
				var err error
				if tags, err = distrib.NewDiskTagsFS(dir, ffs); err != nil {
					return acked, cut
				}
			}
			dead := ffs.Dead()
			if err := w.apply(tags); err == nil {
				acked = append(acked, w)
			} else if !dead && ffs.Dead() {
				cut = &writes[i]
			}
		}
		return acked, cut
	}
	state := func(ws []tagWrite) map[string]oci.Descriptor {
		m := distrib.NewMemTags()
		for _, w := range ws {
			w.apply(m)
		}
		return m.All()
	}
	clean := faultinject.NewPlan(1)
	if acked, _ := run(t.TempDir(), clean); len(acked) != len(writes) {
		t.Fatalf("clean run acknowledged %d of %d writes", len(acked), len(writes))
	}
	total := clean.Ops()
	for n := int64(1); n <= total; n++ {
		dir := t.TempDir()
		acked, cut := run(dir, faultinject.NewPlan(1).At(n, faultinject.PowerCut))
		got := reopenAll(t, dir)
		want := state(acked)
		if !reflect.DeepEqual(got, want) && (cut == nil || !reflect.DeepEqual(got, state(append(acked, *cut)))) {
			t.Fatalf("cut at operation %d of %d: reopened tags %v, want the %d acknowledged writes applied: %v", n, total, got, len(acked), want)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			switch f.Name() {
			case "tags.log", "index.json":
			case "tmp":
				// The temp files of cut view writes, for a store's open to sweep.
				temps, _ := filepath.Glob(filepath.Join(dir, "tmp", "*"))
				if viewTemps, _ := filepath.Glob(filepath.Join(dir, "tmp", "file-*")); len(viewTemps) != len(temps) {
					t.Fatalf("cut at operation %d of %d: tmp/ holds %v, want view temps alone", n, total, temps)
				}
			default:
				t.Fatalf("cut at operation %d of %d: directory holds %s, want tags.log, index.json and tmp/ alone", n, total, f.Name())
			}
		}
	}
}

// TestDiskTagsConcurrentSetsAgree: Sets of one tag racing each other
// leave the live store and a reopened one naming the same winner. The
// Sets skip the disk flush and a reader contends for the map's lock,
// so a Set often reaches the map after a later one: a store that
// applied Sets in the order they got the lock, not the order of their
// lines, fails within a few rounds.
func TestDiskTagsConcurrentSetsAgree(t *testing.T) {
	for round := 0; round < 100; round++ {
		dir := t.TempDir()
		var noErr error
		tags, err := distrib.NewDiskTagsFS(dir, syncing{faultinject.OS(), &noErr})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg, readers sync.WaitGroup
		readers.Add(1)
		go func() { // a reader holds the map's lock as often as it can
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tags.Resolve("team/app", "v1")
				}
			}
		}()
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tags.Set("team/app", "v1", manifestDesc(fmt.Sprint(round, "-", i))); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		tags.Close()
		live, _ := tags.Resolve("team/app", "v1")
		if again, _ := openTags(t, dir).Resolve("team/app", "v1"); again.Digest != live.Digest {
			t.Fatalf("round %d: the live store says %s won, the reopened one %s", round, live.Digest.Short(), again.Digest.Short())
		}
	}
}

// TestDiskTagsOpensPerTagFiles: a data directory written before the
// tag log — refs/, one file per tag, plus the temp file of a write a
// crash cut short — opens with every tag, slash-bearing names and tags
// holding ':' among them. The open moves them into the log and removes
// refs/, and a second open finds the same map.
func TestDiskTagsOpensPerTagFiles(t *testing.T) {
	dir := t.TempDir()
	fixture := "testdata/formats/per-tag-files/refs"
	files, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "refs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(fixture, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "refs", f.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	first := reopenAll(t, dir)
	keys := []string{"app:v1", "team/sub/app:latest", "user/hpccg:comt:ubuntu24.base", "user/hpccg:hpccg.dist+coMre", "user/hpccg:ubuntu:24.04"}
	if len(first) != len(keys) {
		t.Errorf("opened %d tags, want %d: %v", len(first), len(keys), first)
	}
	for _, key := range keys {
		// The fixture tagged each key with the digest of its own text.
		if got := first[key]; got.Digest != digest.FromString(key) || got.MediaType != oci.MediaTypeManifest {
			t.Errorf("%s = %+v, want the manifest of digest %s", key, got, digest.FromString(key).Short())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "refs")); !os.IsNotExist(err) {
		t.Errorf("refs/ left after the open: %v", err)
	}
	if again := reopenAll(t, dir); !reflect.DeepEqual(again, first) {
		t.Errorf("second open = %v, want the first's %v", again, first)
	}

	// A store that never held a tag left an empty refs/.
	empty := t.TempDir()
	if err := os.Mkdir(filepath.Join(empty, "refs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if got := reopenAll(t, empty); len(got) != 0 {
		t.Errorf("an empty refs/ opened as %v", got)
	}
	if _, err := os.Stat(filepath.Join(empty, "refs")); !os.IsNotExist(err) {
		t.Errorf("empty refs/ left after the open: %v", err)
	}
}

// FuzzTagLogReplay: a registry replays its tags.log at every open,
// after whatever a crash, a full disk or an operator left in it.
// Whatever the file holds, the open never panics. When it fails, the
// file is as it was: a corrupt line is never cut off with the
// acknowledged tags after it. When it succeeds, one Set and a reopen
// give the map the first open found plus that Set: a torn last line is
// cut off, a rewrite keeps every live tag, and nothing in or past the
// tail comes back. Maps are compared as JSON, the form in which a tag
// leaves the registry.
//
// The input is the file. Named seeds under testdata/fuzz: a valid
// two-line log; a second line cut mid-JSON, which is cut off; a garbage
// line with a valid one after it, a flipped byte in the first of two
// lines, and a line longer than the 1 MiB replay buffer, each of which
// fails the open.
func FuzzTagLogReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "tags.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tags, err := distrib.NewDiskTags(dir)
		if err != nil {
			if raw, _ := os.ReadFile(path); !bytes.Equal(raw, data) {
				t.Fatalf("the open failed (%v) and changed the log to %q", err, raw)
			}
			return
		}
		want := tags.All()
		d := oci.Descriptor{MediaType: oci.MediaTypeManifest, Digest: digest.FromBytes(data), Size: 1}
		err = tags.Set("fuzz/app", "v1", d)
		tags.Close()
		if err != nil {
			t.Fatal(err)
		}
		want["fuzz/app:v1"] = d

		again, err := distrib.NewDiskTags(dir)
		if err != nil {
			t.Fatalf("reopening after a Set: %v", err)
		}
		defer again.Close()
		got, _ := json.Marshal(again.All())
		if w, _ := json.Marshal(want); string(got) != string(w) {
			t.Fatalf("reopened tags %s, want the first open's plus the Set: %s", got, w)
		}
	})
}

// TestDiskTagsRefusesCorruptLog: a line of tags.log that does not parse,
// with lines after it, is not the torn tail of a crash — only the last
// append can be torn — so the open fails, naming it, and leaves the
// file whole for an operator, the way a corrupt blob is kept in
// quarantine rather than deleted.
func TestDiskTagsRefusesCorruptLog(t *testing.T) {
	dir := t.TempDir()
	tags := openTags(t, dir)
	for i, tag := range []string{"v1", "v2", "v3"} {
		if err := tags.Set("team/app", tag, manifestDesc(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	tags.Close()
	path := filepath.Join(dir, "tags.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Replace(raw, []byte(`"key"`), []byte(`"k\x80y"`), 1)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if again, err := distrib.NewDiskTags(dir); err == nil {
		again.Close()
		t.Fatalf("a log with a corrupt first line opened with %v", again.All())
	} else if !strings.Contains(err.Error(), "offset 0") {
		t.Errorf("open failed with %q, want it to name the line at offset 0", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, corrupt) {
		t.Errorf("the failed open changed the log to %q", after)
	}
}

// TestDiskTagsBrokenLogRefusesWrites: a Set whose Sync fails and whose
// line then cannot be cut off again leaves that line whole on disk.
// The Set fails with faultinject.ErrBroken, the live map does not show
// it, every later write fails without reaching the disk, and a reopen
// may replay the line, as after a power cut during its Sync.
func TestDiskTagsBrokenLogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	count := faultinject.NewPlan(1)
	counted, err := distrib.NewDiskTagsFS(t.TempDir(), faultinject.NewFS(faultinject.OS(), count))
	if err != nil {
		t.Fatal(err)
	}
	counted.Close()
	opened := count.Ops() // a Set is then a write, a sync and, when that fails, a cut
	plan := faultinject.NewPlan(1).At(opened+2, faultinject.EIO).At(opened+3, faultinject.EIO)
	tags, err := distrib.NewDiskTagsFS(dir, faultinject.NewFS(faultinject.OS(), plan))
	if err != nil {
		t.Fatal(err)
	}
	defer tags.Close()
	doubt := manifestDesc("in doubt")
	if err := tags.Set("team/app", "v1", doubt); !errors.Is(err, faultinject.ErrBroken) {
		t.Fatalf("Set whose sync and cut failed: %v, want ErrBroken", err)
	}
	if got, ok := tags.Resolve("team/app", "v1"); ok {
		t.Fatalf("the live store shows the failed Set: %v", got.Digest)
	}
	if err := tags.Set("team/app", "v2", manifestDesc("refused")); !errors.Is(err, faultinject.ErrBroken) {
		t.Fatalf("Set after the log broke: %v, want ErrBroken", err)
	}
	if err := tags.Delete("team/app", "v1"); !errors.Is(err, faultinject.ErrBroken) {
		t.Fatalf("Delete after the log broke: %v, want ErrBroken", err)
	}
	if n := plan.Ops(); n != opened+3 {
		t.Fatalf("%d operations, want %d: a write after the break reached the disk", n, opened+3)
	}
	tags.Close()
	got := reopenAll(t, dir)
	if len(got) != 1 || got["team/app:v1"].Digest != doubt.Digest {
		t.Fatalf("reopened tags %v, want team/app:v1 = the Set in doubt, alone", got)
	}
}
