package fsim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteAndRead(t *testing.T) {
	f := New()
	f.WriteFile("/app/bin/lulesh", []byte("ELF..."), 0o755)
	got, err := f.ReadFile("/app/bin/lulesh")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ELF..." {
		t.Errorf("ReadFile = %q", got)
	}
	// Parents auto-created.
	for _, p := range []string{"/app", "/app/bin"} {
		file, err := f.Stat(p)
		if err != nil {
			t.Fatalf("Stat(%s): %v", p, err)
		}
		if file.Type != TypeDir {
			t.Errorf("%s is %s, want dir", p, file.Type)
		}
	}
}

func TestCleanPaths(t *testing.T) {
	f := New()
	f.WriteFile("usr//lib/../lib/libc.so", []byte("x"), 0o644)
	if !f.Exists("/usr/lib/libc.so") {
		t.Error("path not normalized")
	}
}

func TestReadFileWrongType(t *testing.T) {
	f := New()
	f.MkdirAll("/etc", 0o755)
	if _, err := f.ReadFile("/etc"); err == nil {
		t.Error("ReadFile(dir) succeeded")
	}
	if _, err := f.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadFile(missing) err = %v, want ErrNotExist", err)
	}
}

func TestRemoveSubtree(t *testing.T) {
	f := New()
	f.WriteFile("/a/b/c", []byte("1"), 0o644)
	f.WriteFile("/a/b/d", []byte("2"), 0o644)
	f.WriteFile("/a/e", []byte("3"), 0o644)
	if err := f.Remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	if f.Exists("/a/b/c") || f.Exists("/a/b/d") || f.Exists("/a/b") {
		t.Error("subtree not removed")
	}
	if !f.Exists("/a/e") {
		t.Error("sibling removed")
	}
	if err := f.Remove("/"); err == nil {
		t.Error("removed root")
	}
	if err := f.Remove("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Remove(missing) = %v", err)
	}
}

func TestGlob(t *testing.T) {
	f := New()
	f.WriteFile("/src/main.c", nil, 0o644)
	f.WriteFile("/src/util.c", nil, 0o644)
	f.WriteFile("/src/util.h", nil, 0o644)
	if got := f.Glob("*.c"); len(got) != 2 {
		t.Errorf("Glob(*.c) = %v", got)
	}
	if got := f.Glob("/src/*.h"); len(got) != 1 || got[0] != "/src/util.h" {
		t.Errorf("Glob(/src/*.h) = %v", got)
	}
}

func TestSymlinkResolve(t *testing.T) {
	f := New()
	f.WriteFile("/usr/bin/gcc-12", []byte("real"), 0o755)
	f.Symlink("gcc-12", "/usr/bin/gcc")
	f.Symlink("/usr/bin/gcc", "/usr/local/bin/cc")
	got, err := f.ResolveSymlink("/usr/local/bin/cc")
	if err != nil {
		t.Fatal(err)
	}
	if got != "/usr/bin/gcc-12" {
		t.Errorf("ResolveSymlink = %s", got)
	}
	// Cycle detection.
	f.Symlink("/x/b", "/x/a")
	f.Symlink("/x/a", "/x/b")
	if _, err := f.ResolveSymlink("/x/a"); err == nil {
		t.Error("symlink cycle not detected")
	}
}

func TestCloneIsolation(t *testing.T) {
	f := New()
	f.WriteFile("/f", []byte("orig"), 0o644)
	c := f.Clone()
	c.WriteFile("/f", []byte("changed"), 0o644)
	c.WriteFile("/new", nil, 0o644)
	got, _ := f.ReadFile("/f")
	if string(got) != "orig" {
		t.Error("clone mutation leaked to original")
	}
	if f.Exists("/new") {
		t.Error("clone addition leaked")
	}
}

func TestApplyWhiteout(t *testing.T) {
	base := New()
	base.WriteFile("/etc/conf", []byte("old"), 0o644)
	base.WriteFile("/usr/lib/libm.so", []byte("m"), 0o644)

	layer := New()
	layer.WriteFile("/etc/.wh.conf", nil, 0)
	layer.WriteFile("/usr/lib/libblas.so", []byte("blas"), 0o644)

	out := Apply(base, layer)
	if out.Exists("/etc/conf") {
		t.Error("whiteout did not delete /etc/conf")
	}
	if !out.Exists("/usr/lib/libm.so") || !out.Exists("/usr/lib/libblas.so") {
		t.Error("apply lost files")
	}
	if out.Exists("/etc/.wh.conf") {
		t.Error("whiteout marker leaked into state")
	}
	// Inputs untouched.
	if !base.Exists("/etc/conf") {
		t.Error("Apply mutated base")
	}
}

func TestApplyOpaque(t *testing.T) {
	base := New()
	base.WriteFile("/opt/tool/a", nil, 0o644)
	base.WriteFile("/opt/tool/b", nil, 0o644)
	layer := New()
	layer.WriteFile("/opt/tool/"+OpaqueWhiteout, nil, 0)
	layer.WriteFile("/opt/tool/c", nil, 0o644)
	out := Apply(base, layer)
	if out.Exists("/opt/tool/a") || out.Exists("/opt/tool/b") {
		t.Error("opaque whiteout did not clear directory")
	}
	if !out.Exists("/opt/tool/c") {
		t.Error("layer's own entry missing after opaque")
	}
}

func TestApplyFileReplacesDir(t *testing.T) {
	base := New()
	base.WriteFile("/x/inner", nil, 0o644)
	layer := New()
	layer.WriteFile("/x", []byte("now a file"), 0o644)
	out := Apply(base, layer)
	st, err := out.Stat("/x")
	if err != nil || st.Type != TypeRegular {
		t.Fatalf("Stat(/x) = %v, %v", st, err)
	}
	if out.Exists("/x/inner") {
		t.Error("subtree survived dir→file replacement")
	}
}

func TestDiffRoundTrip(t *testing.T) {
	base := New()
	base.WriteFile("/keep", []byte("k"), 0o644)
	base.WriteFile("/change", []byte("v1"), 0o644)
	base.WriteFile("/del/one", []byte("1"), 0o644)
	base.WriteFile("/del/two", []byte("2"), 0o644)

	derived := base.Clone()
	derived.WriteFile("/change", []byte("v2"), 0o644)
	derived.WriteFile("/added", []byte("a"), 0o644)
	if err := derived.Remove("/del"); err != nil {
		t.Fatal(err)
	}

	layer := Diff(base, derived)
	if !Apply(base, layer).Equal(derived) {
		t.Error("Apply(base, Diff(base, derived)) != derived")
	}
	// The deleted directory should produce one whiteout, not three.
	whCount := 0
	for _, p := range layer.Paths() {
		if strings.HasSuffix(p, ".wh.del") {
			whCount++
		}
	}
	if whCount != 1 {
		t.Errorf("whiteout count for /del = %d, want 1", whCount)
	}
}

// randomFS builds a deterministic pseudo-random FS from a seed.
func randomFS(seed int64, n int) *FS {
	rng := rand.New(rand.NewSource(seed))
	f := New()
	dirs := []string{"/", "/usr", "/usr/lib", "/etc", "/app", "/app/src"}
	for i := 0; i < n; i++ {
		d := dirs[rng.Intn(len(dirs))]
		name := fmt.Sprintf("f%02d", rng.Intn(30))
		switch rng.Intn(3) {
		case 0:
			f.WriteFile(d+"/"+name, []byte(fmt.Sprintf("data%d", rng.Int63())), 0o644)
		case 1:
			f.MkdirAll(d+"/"+name+"_dir", 0o755)
		case 2:
			f.Symlink("/usr/lib", d+"/"+name+"_ln")
		}
	}
	return f
}

func TestPropertyDiffApplyRoundTrip(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		base := randomFS(seedA, 25)
		derived := randomFS(seedB, 25)
		layer := Diff(base, derived)
		return Apply(base, layer).Equal(derived)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		fs := randomFS(seed, 30)
		return fs.Equal(fs.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTotalSize(t *testing.T) {
	f := New()
	f.WriteFile("/a", make([]byte, 100), 0o644)
	f.WriteFile("/b", make([]byte, 23), 0o644)
	f.MkdirAll("/d", 0o755)
	if got := f.TotalSize(); got != 123 {
		t.Errorf("TotalSize = %d, want 123", got)
	}
}
