package fsim

import (
	"fmt"
	"math/rand"
	"path"
	"slices"
	"strings"
	"sync"
	"testing"
)

// applyLayerReference is the fold applyLayer replaced, kept verbatim:
// one Stat, Remove or Add per entry, each under its own lock. It stays
// here as the oracle the one-pass fold is fuzzed against.
func (f *FS) applyLayerReference(layer *FS) {
	// Opaque markers first: they clear lower content before this layer's
	// own entries for the directory are added.
	var adds []*File
	for _, p := range layer.Paths() {
		file, err := layer.Stat(p)
		if err != nil {
			continue
		}
		baseName := path.Base(p)
		wh, opaque := isWhiteout(baseName)
		switch {
		case opaque:
			dir := path.Dir(p)
			if d, err := f.Stat(dir); err == nil && d.Type == TypeDir {
				prefix := dir + "/"
				if dir == "/" {
					prefix = "/"
				}
				f.mu.Lock()
				for q := range f.files {
					if q != dir && strings.HasPrefix(q, prefix) {
						delete(f.files, q)
					}
				}
				f.mu.Unlock()
			}
		case wh:
			target := path.Join(path.Dir(p), strings.TrimPrefix(baseName, WhiteoutPrefix))
			// Whiteout of a missing path is a no-op by the OCI spec, and
			// Remove on an in-memory FS has no other failure mode here.
			//comtainer:allow errpropagate -- whiteout of a missing path is a spec-mandated no-op
			_ = f.Remove(target)
		default:
			adds = append(adds, file)
		}
	}
	for _, file := range adds {
		// Replacing a directory with a non-directory removes the subtree.
		if existing, err := f.Stat(file.Path); err == nil && existing.Type == TypeDir && file.Type != TypeDir {
			//comtainer:allow errpropagate -- Stat just proved the path exists; Remove cannot fail
			_ = f.Remove(file.Path)
		}
		f.Add(file)
	}
}

// decodeLayers reads a layer stack from text, one entry a line:
//
//	f <path> [data]    regular file, mode 0644 (F: 0600)
//	d <path>           directory, mode 0755 (D: 0700)
//	l <path> [target]  symlink
//	-                  the next layer
//
// Entries go in through Add, which takes whatever it is given — a file
// beneath a file, a directory over one with children — so a layer may
// be any map the API can build, not only a tree. At most four layers of
// 64 entries are read; other lines are skipped.
func decodeLayers(in []byte) []*FS {
	layers := []*FS{New()}
	for _, line := range strings.Split(string(in), "\n") {
		kind, rest, _ := strings.Cut(line, " ")
		p, arg, _ := strings.Cut(rest, " ")
		l := layers[len(layers)-1]
		if kind == "-" && len(layers) < 4 {
			layers = append(layers, New())
			continue
		}
		if l.Len() >= 64 {
			continue
		}
		switch kind {
		case "f":
			l.Add(&File{Path: p, Type: TypeRegular, Mode: 0o644, Data: []byte(arg)})
		case "F":
			l.Add(&File{Path: p, Type: TypeRegular, Mode: 0o600, Data: []byte(arg)})
		case "d":
			l.Add(&File{Path: p, Type: TypeDir, Mode: 0o755})
		case "D":
			l.Add(&File{Path: p, Type: TypeDir, Mode: 0o700})
		case "l":
			l.Add(&File{Path: p, Type: TypeSymlink, Mode: 0o777, Target: arg})
		}
	}
	return layers
}

// FuzzApplyLayers holds the one-pass fold to the one it replaced on
// every layer stack: the same state, path for path and entry for
// entry, with every layer left as it was. The named seeds in
// testdata/fuzz/FuzzApplyLayers — whiteouts of a directory, opaque
// markers at the root and nested, a directory and a file replacing one
// another, a replaced symlink, a file with an entry beneath it — run
// under plain `go test`.
func FuzzApplyLayers(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		layers := decodeLayers(in)
		snaps := make([]*FS, len(layers))
		for i, l := range layers {
			snaps[i] = deepCopy(l)
		}
		want := New()
		for _, l := range layers {
			want.applyLayerReference(l)
		}
		got := ApplyAll(layers)
		if !got.Equal(want) || !slices.Equal(got.Paths(), want.Paths()) {
			t.Fatalf("fold differs from the reference:\n got %v\nwant %v", got.Paths(), want.Paths())
		}
		for i, l := range layers {
			if !l.Equal(snaps[i]) {
				t.Fatalf("folding changed layer %d", i)
			}
		}
	})
}

// foldLayers is a stack of four layers over a tree of nested
// directories: each adds 48 files under paths the ones below did not
// have, replaces a few of theirs and whites one out.
func foldLayers() []*FS {
	var layers []*FS
	for l := 0; l < 4; l++ {
		layer := New()
		for i := 0; i < 48; i++ {
			layer.WriteFile(fmt.Sprintf("/usr/lib/l%d/pkg%d/sub/lib%d.so", l, i%8, i), []byte("elf"), 0o755)
		}
		if l > 0 {
			layer.WriteFile(fmt.Sprintf("/usr/lib/l%d/pkg0/sub/lib0.so", l-1), []byte("new"), 0o755)
			layer.WriteFile(fmt.Sprintf("/usr/lib/l%d/pkg1/sub/%slib1.so", l-1, WhiteoutPrefix), nil, 0)
		}
		layers = append(layers, layer)
	}
	return layers
}

// TestApplyAllAllocationsPerEntry: the fold reads both maps in place,
// so what it allocates is the accumulator's map and the directories it
// creates, not a path or an error for every entry it adds (the fold of
// one Stat, Remove and Add an entry built a not-found error for each
// path new to the state, about three allocations an entry).
func TestApplyAllAllocationsPerEntry(t *testing.T) {
	layers := foldLayers()
	entries := 0
	for _, l := range layers {
		entries += l.Len()
	}
	allocs := testing.AllocsPerRun(20, func() { ApplyAll(layers) })
	t.Logf("%d entries: %.0f allocations (%.2f an entry)", entries, allocs, allocs/float64(entries))
	if budget := float64(entries/4 + 32); allocs > budget {
		t.Errorf("ApplyAll of %d entries made %.0f allocations, budget %.0f (a quarter an entry + 32)", entries, allocs, budget)
	}
}

// TestApplyAllSharedLayersConcurrent: eight goroutines fold the same
// layer trees at once, as concurrent FlattenPrefix calls fold the trees
// an oci.Store remembers, and write to what they get. Every fold comes
// out the same and no layer changes. Meant for -race.
func TestApplyAllSharedLayersConcurrent(t *testing.T) {
	base := randomFS(11, 60)
	layers := append([]*FS{Diff(New(), base), whiteoutLayer(base)}, foldLayers()...)
	snaps := make([]*FS, len(layers))
	for i, l := range layers {
		snaps[i] = deepCopy(l)
	}
	want := deepCopy(ApplyAll(layers))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				got := ApplyAll(layers)
				if !got.Equal(want) {
					t.Errorf("goroutine %d: concurrent fold differs", g)
					return
				}
				if err := mutate(got, layers[0], rng); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, l := range layers {
		if !l.Equal(snaps[i]) {
			t.Errorf("concurrent folds changed layer %d", i)
		}
	}
}
