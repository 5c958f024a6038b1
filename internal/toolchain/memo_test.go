package toolchain

import (
	"reflect"
	"strings"
	"testing"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
)

func memoRunner(f *fsim.FS, memo *actioncache.Memoizer) *Runner {
	r := NewRunner(f, GenericRegistry(ISAx86))
	r.Cwd = "/src"
	r.Memo = memo
	return r
}

func newDiskMemo(t *testing.T) *actioncache.Memoizer {
	t.Helper()
	disk, err := actioncache.NewDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return actioncache.NewMemoizer(disk)
}

// TestRunnerMemoReplay drives a compile+link sequence twice over the
// same cache on fresh file systems: the warm run must replay every
// command (zero compile cost) and produce byte-identical artifacts.
func TestRunnerMemoReplay(t *testing.T) {
	memo := newDiskMemo(t)
	pass := func() (*fsim.FS, Stats) {
		f := buildFS()
		r := memoRunner(f, memo)
		run(t, r, "gcc -O2 -c main.c -o main.o")
		run(t, r, "gcc -O2 -c util.c -o util.o")
		run(t, r, "gcc main.o util.o -lm -o app")
		return f, r.Stats
	}
	cold, coldStats := pass()
	warm, warmStats := pass()

	if coldStats.CompileUnits == 0 {
		t.Fatal("cold run accrued no compile cost")
	}
	if warmStats.CompileUnits != 0 {
		t.Errorf("warm run accrued compile cost %v, want 0 (all replayed)", warmStats.CompileUnits)
	}
	if warmStats.Commands != coldStats.Commands {
		t.Errorf("warm ran %d commands, cold %d", warmStats.Commands, coldStats.Commands)
	}
	if !cold.Equal(warm) {
		t.Error("replayed file system differs from executed one")
	}
	s := memo.Stats()
	if s.Misses != 3 || s.Hits != 3 {
		t.Errorf("stats = %+v, want 3 misses + 3 hits", s)
	}
}

// TestRunnerMemoInvalidatedBySourceEdit edits one source between runs:
// the touched compile re-executes, the untouched one replays. The link
// replays too — the edited source recompiles to a byte-identical
// metadata artifact, so the cache prunes the rebuild there (the same
// early cutoff a content-addressed build system gives you when a
// comment-only edit produces an unchanged object file).
func TestRunnerMemoInvalidatedBySourceEdit(t *testing.T) {
	memo := newDiskMemo(t)
	pass := func(edit bool) *fsim.FS {
		f := buildFS()
		if edit {
			f.WriteFile("/src/util.c", []byte("double f(double x){return x+x;}\n"), 0o644)
		}
		r := memoRunner(f, memo)
		run(t, r, "gcc -O2 -c main.c -o main.o")
		run(t, r, "gcc -O2 -c util.c -o util.o")
		run(t, r, "gcc main.o util.o -lm -o app")
		return f
	}
	pass(false)
	pass(true)
	s := memo.Stats()
	// Cold: 3 misses. Edited: util.c re-executes; main.c and the link
	// (whose object inputs are unchanged) replay.
	if s.Misses != 4 || s.Hits != 2 {
		t.Errorf("stats = %+v, want 4 misses + 2 hits", s)
	}
}

// TestRunnerMemoInvalidatedByLibraryChange swaps the libm artifact the
// link resolves: the compiles replay, the link must not.
func TestRunnerMemoInvalidatedByLibraryChange(t *testing.T) {
	memo := newDiskMemo(t)
	pass := func(newLib bool) *fsim.FS {
		f := buildFS()
		if newLib {
			lib := LibraryArtifact("libm", "vendor-hpc", ISAx86, 2.5, true)
			f.WriteFile("/usr/lib/libm.so.6", lib.Encode(), 0o644)
		}
		r := memoRunner(f, memo)
		run(t, r, "gcc -O2 -c main.c -o main.o")
		run(t, r, "gcc main.o -lm -o app")
		return f
	}
	pass(false)
	f := pass(true)
	s := memo.Stats()
	if s.Misses != 3 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 3 misses + 1 hit", s)
	}
	data, err := f.ReadFile("/src/app")
	if err != nil {
		t.Fatal(err)
	}
	art, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range art.DynamicLibs {
		if strings.Contains(d, "libm") {
			found = true
		}
	}
	if !found {
		t.Errorf("relinked app lost libm: %v", art.DynamicLibs)
	}
}

// TestRunnerMemoDistinctToolchainsDoNotCollide runs the same argv
// under x86 and ARM registries: the ARM run must not replay x86 cache
// entries.
func TestRunnerMemoDistinctToolchainsDoNotCollide(t *testing.T) {
	memo := newDiskMemo(t)

	fx := fsim.New()
	fx.WriteFile("/src/a.c", []byte("int f(void){return 1;}\n"), 0o644)
	rx := memoRunner(fx, memo)
	run(t, rx, "gcc -c a.c -o a.o")

	fa := fsim.New()
	fa.WriteFile("/src/a.c", []byte("int f(void){return 1;}\n"), 0o644)
	ra := NewRunner(fa, GenericRegistry(ISAArm))
	ra.Cwd = "/src"
	ra.Memo = memo
	run(t, ra, "gcc -c a.c -o a.o")

	if s := memo.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v: cross-toolchain cache collision", s)
	}
	xd, _ := fx.ReadFile("/src/a.o")
	ad, _ := fa.ReadFile("/src/a.o")
	xa, _ := Decode(xd)
	aa, _ := Decode(ad)
	if xa.TargetISA == aa.TargetISA {
		t.Error("ARM build replayed the x86 object")
	}
}

// TestRunnerMemoErrorsStayUncached verifies a failing compile is not
// memoized: fixing the input makes it succeed.
func TestRunnerMemoErrorsStayUncached(t *testing.T) {
	memo := newDiskMemo(t)
	f := fsim.New()
	r := memoRunner(f, memo)
	if err := r.Run(strings.Fields("gcc -c missing.c -o a.o")); err == nil {
		t.Fatal("compile of a missing source succeeded")
	}
	f.WriteFile("/src/missing.c", []byte("int f(void){return 0;}\n"), 0o644)
	run(t, r, "gcc -c missing.c -o a.o")
	if !f.Exists("/src/a.o") {
		t.Fatal("object not produced after the fix")
	}
}

// TestReadFileWithoutRecorderHashesNothing: a runner with no action
// being recorded — every user-side RUN — reads a source without taking
// the digest only a recorder would keep.
func TestReadFileWithoutRecorderHashesNothing(t *testing.T) {
	f := fsim.New()
	f.WriteFile("/src/main.c", []byte(strings.Repeat("int x;\n", 512)), 0o644)
	r := memoRunner(f, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.readFile("/src/main.c"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("readFile with no recorder made %.0f allocations, want 0", allocs)
	}
}

// TestTierlessRunRecordsWhatATieredRunRecords: a memoizer with no cache
// tier (a farm worker's, a farm-mode executor's) takes no input states,
// yet the record it returns — what a worker reports and what the
// executor re-observes — names the same inputs and outputs as a tiered
// run's of the same action.
func TestTierlessRunRecordsWhatATieredRunRecords(t *testing.T) {
	for _, line := range []string{"gcc -O2 -c main.c -o main.o", "gcc -O2 main.c util.c -lm -o app"} {
		var results []*actioncache.Result
		for _, memo := range []*actioncache.Memoizer{actioncache.NewMemoizer(nil), newDiskMemo(t)} {
			r := memoRunner(buildFS(), memo)
			run(t, r, line)
			if r.LastResult == nil || len(r.LastResult.Inputs) == 0 || len(r.LastResult.Outputs) == 0 {
				t.Fatalf("%q recorded %+v, want inputs and outputs", line, r.LastResult)
			}
			results = append(results, r.LastResult)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%q: the tierless run recorded\n %+v\nthe tiered one\n %+v", line, results[0], results[1])
		}
	}
}

// TestTierlessReadHashesNothing: inside an action a memoizer without a
// tier runs, a read takes no digest — no allocation once the input is
// noted — while under a tiered memoizer the same read hashes the file.
func TestTierlessReadHashesNothing(t *testing.T) {
	f := fsim.New()
	f.WriteFile("/src/main.c", []byte(strings.Repeat("int x;\n", 512)), 0o644)
	for _, c := range []struct {
		name   string
		memo   *actioncache.Memoizer
		hashes bool
	}{{"no tier", actioncache.NewMemoizer(nil), false}, {"a tier", newDiskMemo(t), true}} {
		r := memoRunner(f, c.memo)
		var allocs float64
		_, _, err := c.memo.Do(digest.FromString("read-"+c.name), nil, func(rec *actioncache.Recorder) error {
			r.rec = rec
			defer func() { r.rec = nil }()
			allocs = testing.AllocsPerRun(100, func() {
				if _, err := r.readFile("/src/main.c"); err != nil {
					t.Fatal(err)
				}
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if hashed := allocs > 0; hashed != c.hashes {
			t.Errorf("%s: a read made %.0f allocations; want a digest taken: %v", c.name, allocs, c.hashes)
		}
	}
}
