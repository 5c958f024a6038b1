package fsim

import (
	"fmt"
	"math/rand"
	"path"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// Clone, Apply, ApplyAll and Diff share *File values between
// file systems. These tests hold them to the contract that makes that
// safe: no mutator of one FS is ever visible through another.

// deepCopy rebuilds f from copies of everything it holds, bytes
// included — the snapshot the sharing operations are compared against.
func deepCopy(f *FS) *FS {
	out := New()
	for _, p := range f.Paths() {
		file, _ := f.Stat(p)
		out.Add(&File{
			Path: file.Path, Type: file.Type, Mode: file.Mode, Target: file.Target,
			Data: append([]byte(nil), file.Data...),
		})
	}
	return out
}

// regularPaths lists the regular files of f, sorted.
func regularPaths(f *FS) []string {
	var out []string
	for _, p := range f.Paths() {
		if file, _ := f.Stat(p); file.Type == TypeRegular {
			out = append(out, p)
		}
	}
	return out
}

// mutate drives every in-place mutator over f, aiming at entries f
// may share with other file systems. donor supplies an entry to Add:
// as it is, re-homed through File.Clone, and under an unclean path.
func mutate(f, donor *FS, rng *rand.Rand) error {
	if files := regularPaths(f); len(files) > 0 {
		f.WriteFile(files[rng.Intn(len(files))], []byte("overwritten"), 0o600)
	}
	f.WriteFile("/fresh/file", []byte("new"), 0o644)
	if err := f.MkdirAll(fmt.Sprintf("/made/d%d", rng.Intn(4)), 0o700); err != nil {
		return err
	}
	f.Symlink("/etc", fmt.Sprintf("/ln%d", rng.Intn(4)))
	if files := regularPaths(donor); len(files) > 0 {
		p := files[rng.Intn(len(files))]
		given, _ := donor.Stat(p)
		f.Add(given)
		if got, _ := f.Stat(p); got != given {
			return fmt.Errorf("Add(%s) of a clean-path entry stored a copy, want the entry itself", p)
		}
		moved := given.Clone()
		moved.Path = "/adopted" + p
		f.Add(moved)
		unclean := given.Clone()
		unclean.Path = "unclean//x/.." + p
		f.Add(unclean)
		if got, err := f.Stat("/unclean" + p); err != nil || got.Path != "/unclean"+p || got == unclean {
			return fmt.Errorf("Add of unclean path %q stored %+v (%v)", unclean.Path, got, err)
		}
		if given.Path != p || unclean.Path != "unclean//x/.."+p {
			return fmt.Errorf("Add wrote to its argument: paths now %q, %q", given.Path, unclean.Path)
		}
	}
	if paths := f.Paths(); len(paths) > 0 {
		return f.Remove(paths[rng.Intn(len(paths))])
	}
	return nil
}

// whiteoutLayer builds a layer over f's layout with an opaque
// directory, a whiteout of an existing file, and additions.
func whiteoutLayer(f *FS) *FS {
	layer := New()
	layer.WriteFile("/usr/"+OpaqueWhiteout, nil, 0)
	layer.WriteFile("/usr/after-opaque", []byte("kept"), 0o644)
	// The whited-out file lies outside /usr: a whiteout inside brings
	// its parent directories along in the layer, and /usr would not
	// come out of the opaque marker holding after-opaque alone.
	var files []string
	for _, p := range regularPaths(f) {
		if !strings.HasPrefix(p, "/usr/") {
			files = append(files, p)
		}
	}
	if len(files) > 0 {
		victim := files[len(files)/2]
		layer.WriteFile(path.Join(path.Dir(victim), WhiteoutPrefix+path.Base(victim)), nil, 0)
	}
	layer.WriteFile("/etc/added", []byte("added"), 0o644)
	return layer
}

func TestCloneSharingMutators(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randomFS(seed, 30)
		origSnap := deepCopy(orig)
		clone := orig.Clone()

		must(mutate(clone, orig, rng))
		if !orig.Equal(origSnap) {
			t.Errorf("seed %d: mutating the clone changed the original", seed)
			return false
		}
		cloneSnap := deepCopy(clone)
		must(mutate(orig, clone, rng))
		if !clone.Equal(cloneSnap) {
			t.Errorf("seed %d: mutating the original changed the clone", seed)
			return false
		}
		origSnap = deepCopy(orig)

		// Diff over two states that share most entries, both ways.
		if !Apply(orig, Diff(orig, clone)).Equal(clone) || !Apply(clone, Diff(clone, orig)).Equal(orig) {
			t.Errorf("seed %d: Apply(base, Diff(base, derived)) != derived across shared entries", seed)
			return false
		}

		// Apply hands out a state that shares its inputs' entries:
		// mutate the result, the inputs must hold.
		layer := whiteoutLayer(orig)
		layerSnap := deepCopy(layer)
		applied := Apply(orig, layer)
		if applied.Exists("/usr/lib") || !applied.Exists("/usr/after-opaque") {
			t.Errorf("seed %d: opaque whiteout not honoured", seed)
			return false
		}
		must(mutate(applied, clone, rng))
		for name, pair := range map[string][2]*FS{
			"original": {orig, origSnap}, "clone": {clone, cloneSnap}, "layer": {layer, layerSnap},
		} {
			if !pair[0].Equal(pair[1]) {
				t.Errorf("seed %d: mutating an Apply result changed the %s", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCloneSharingConcurrent: one FS cloned by eight goroutines at
// once, each writing to its own clone through every mutator while the
// others read the entries they share. Meant for -race.
func TestCloneSharingConcurrent(t *testing.T) {
	base := randomFS(7, 60)
	snap := deepCopy(base)
	layer := whiteoutLayer(base)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				c := base.Clone()
				err := mutate(c, base, rng)
				applied := Apply(c, layer)
				if err == nil {
					err = mutate(applied, base, rng)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !Apply(base, Diff(base, applied)).Equal(applied) {
					t.Errorf("goroutine %d: diff round trip failed", g)
					return
				}
				if !ApplyAll([]*FS{Diff(New(), base), layer}).Equal(Apply(base, layer)) {
					t.Errorf("goroutine %d: ApplyAll differs from Apply", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !base.Equal(snap) {
		t.Error("concurrent writers to clones changed the shared original")
	}
}

// TestCloneAllocatesEntriesNotBytes: a snapshot of a 64 MiB file
// system costs its map, not its data.
func TestCloneAllocatesEntriesNotBytes(t *testing.T) {
	const files, each = 1024, 64 << 10
	f := New()
	buf := make([]byte, each)
	for i := 0; i < files; i++ {
		f.WriteFile(fmt.Sprintf("/d%02d/f%04d", i%32, i), buf, 0o644)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := f.Clone()
	runtime.ReadMemStats(&after)
	allocated, data := after.TotalAlloc-before.TotalAlloc, uint64(f.TotalSize())
	if data != files*each || allocated*100 >= data {
		t.Errorf("Clone of %d data bytes allocated %d bytes, want under 1%%", data, allocated)
	}
	if !c.Equal(f) {
		t.Error("clone differs from its source")
	}
}
