package toolchain

import (
	"strings"
	"testing"

	"comtainer/internal/fsim"
)

// buildFS returns an image FS with a C runtime, libm, and two sources.
func buildFS() *fsim.FS {
	f := fsim.New()
	libc := LibraryArtifact("libc", "gnu", ISAx86, 1.0, false)
	f.WriteFile("/usr/lib/libc.so.6", libc.Encode(), 0o644)
	f.Symlink("libc.so.6", "/usr/lib/libc.so")
	libm := LibraryArtifact("libm", "gnu", ISAx86, 1.0, false)
	f.WriteFile("/usr/lib/libm.so.6", libm.Encode(), 0o644)
	f.Symlink("libm.so.6", "/usr/lib/libm.so")
	f.WriteFile("/src/main.c", []byte("#include <stdio.h>\nint main(){return 0;}\n"), 0o644)
	f.WriteFile("/src/util.c", []byte("double f(double x){return x*x;}\n"), 0o644)
	return f
}

func newX86Runner(f *fsim.FS) *Runner {
	r := NewRunner(f, GenericRegistry(ISAx86))
	r.Cwd = "/src"
	return r
}

func run(t *testing.T, r *Runner, line string) {
	t.Helper()
	if err := r.Run(strings.Fields(line)); err != nil {
		t.Fatalf("Run(%q): %v", line, err)
	}
}

func runErr(t *testing.T, r *Runner, line string) error {
	t.Helper()
	err := r.Run(strings.Fields(line))
	if err == nil {
		t.Fatalf("Run(%q) succeeded, want error", line)
	}
	return err
}

func loadArt(t *testing.T, f *fsim.FS, p string) *Artifact {
	t.Helper()
	data, err := f.ReadFile(p)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", p, err)
	}
	a, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%s): %v", p, err)
	}
	return a
}

func TestCompileObject(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -O2 -c main.c -o main.o")
	a := loadArt(t, f, "/src/main.o")
	if a.Kind != KindObject || a.OptLevel != "2" || a.TargetISA != ISAx86 {
		t.Errorf("artifact = %+v", a)
	}
	if a.March != "x86-64" {
		t.Errorf("default march = %q", a.March)
	}
	if len(a.Sources) != 1 || a.Sources[0] != "/src/main.c" {
		t.Errorf("Sources = %v", a.Sources)
	}
	if a.Toolchain != "gnu-gcc-13" {
		t.Errorf("Toolchain = %q", a.Toolchain)
	}
}

func TestCompileDefaultOutputName(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -c main.c util.c")
	if !f.Exists("/src/main.o") || !f.Exists("/src/util.o") {
		t.Error("default-named objects missing")
	}
}

func TestCompileMissingSource(t *testing.T) {
	r := newX86Runner(buildFS())
	err := runErr(t, r, "gcc -c nonexistent.c")
	if !strings.Contains(err.Error(), "no such file") {
		t.Errorf("err = %v", err)
	}
}

func TestLinkExecutable(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -O2 -c main.c")
	run(t, r, "gcc -O2 -c util.c")
	run(t, r, "gcc main.o util.o -lm -o app")
	a := loadArt(t, f, "/src/app")
	if a.Kind != KindExecutable {
		t.Errorf("Kind = %s", a.Kind)
	}
	if len(a.Sources) != 2 {
		t.Errorf("Sources = %v", a.Sources)
	}
	// libm resolved through the symlink, libc implicit.
	wantLibs := map[string]bool{"/usr/lib/libm.so.6": true, "/usr/lib/libc.so.6": true}
	if len(a.DynamicLibs) != 2 {
		t.Fatalf("DynamicLibs = %v", a.DynamicLibs)
	}
	for _, l := range a.DynamicLibs {
		if !wantLibs[l] {
			t.Errorf("unexpected dynamic lib %s", l)
		}
	}
}

func TestCompileAndLinkOneStep(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -O3 main.c util.c -o app")
	a := loadArt(t, f, "/src/app")
	if a.Kind != KindExecutable || a.OptLevel != "3" || len(a.Sources) != 2 {
		t.Errorf("artifact = %+v", a)
	}
}

func TestLinkMissingLibrary(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -c main.c")
	err := runErr(t, r, "gcc main.o -lblas -o app")
	if !strings.Contains(err.Error(), "cannot find -lblas") {
		t.Errorf("err = %v", err)
	}
}

func TestLinkWrongISA(t *testing.T) {
	f := buildFS()
	x86 := newX86Runner(f)
	run(t, x86, "gcc -c main.c")
	// Try to link the x86 object with an AArch64 toolchain.
	arm := NewRunner(f, GenericRegistry(ISAArm))
	arm.Cwd = "/src"
	err := arm.Run(strings.Fields("gcc main.o -o app"))
	if err == nil || !strings.Contains(err.Error(), "wrong format") {
		t.Errorf("err = %v", err)
	}
}

func TestMachineFlagValidation(t *testing.T) {
	f := buildFS()
	arm := NewRunner(f, GenericRegistry(ISAArm))
	arm.Cwd = "/src"
	err := arm.Run(strings.Fields("gcc -mavx2 -c main.c"))
	if err == nil || !strings.Contains(err.Error(), "unrecognized") {
		t.Errorf("-mavx2 on aarch64: err = %v", err)
	}
	err = arm.Run(strings.Fields("gcc -march=icelake-server -c main.c"))
	if err == nil {
		t.Error("x86 march accepted by aarch64 toolchain")
	}
	// Valid for ARM.
	if err := arm.Run(strings.Fields("gcc -march=armv8.2-a -c main.c")); err != nil {
		t.Errorf("valid arm march rejected: %v", err)
	}
}

func TestMarchNativeResolution(t *testing.T) {
	f := buildFS()
	// Generic GCC on a build box.
	r := newX86Runner(f)
	run(t, r, "gcc -march=native -c main.c -o gen.o")
	if a := loadArt(t, f, "/src/gen.o"); a.March != "x86-64-v3" {
		t.Errorf("generic native march = %q", a.March)
	}
	// Vendor compiler on the HPC node.
	v := NewRunner(f, VendorRegistry(ISAx86))
	v.Cwd = "/src"
	run(t, v, "gcc -march=native -c main.c -o vend.o")
	a := loadArt(t, f, "/src/vend.o")
	if a.March != "icelake-server" || a.Vendor != "intellic" {
		t.Errorf("vendor native artifact = %+v", a)
	}
}

func TestArchiveAndLinkStatic(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -O2 -c util.c")
	run(t, r, "ar rcs libutil.a util.o")
	a := loadArt(t, f, "/src/libutil.a")
	if a.Kind != KindArchive || len(a.Objects) != 1 {
		t.Errorf("archive = %+v", a)
	}
	run(t, r, "gcc -O2 -c main.c")
	run(t, r, "gcc main.o -L. -lutil -o app")
	app := loadArt(t, f, "/src/app")
	if len(app.Sources) != 2 {
		t.Errorf("static-linked sources = %v", app.Sources)
	}
	// Static lib contributes no dynamic dependency.
	for _, l := range app.DynamicLibs {
		if strings.Contains(l, "util") {
			t.Errorf("static archive appears as dynamic dep: %v", app.DynamicLibs)
		}
	}
}

func TestLTOPropagation(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -O2 -flto -c main.c")
	run(t, r, "gcc -O2 -flto -c util.c")
	run(t, r, "gcc -flto main.o util.o -o app")
	a := loadArt(t, f, "/src/app")
	if !a.LTO {
		t.Error("LTO link not marked")
	}
	if r.Stats.LTOLinks != 1 {
		t.Errorf("LTOLinks = %d", r.Stats.LTOLinks)
	}

	// Mixing a non-LTO object drops whole-program LTO.
	run(t, r, "gcc -O2 -c util.c -o plain.o")
	run(t, r, "gcc -flto main.o plain.o -o app2")
	if a := loadArt(t, f, "/src/app2"); a.LTO {
		t.Error("LTO marked despite non-IR object")
	}
}

func TestPGOWorkflow(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	// Instrumented build.
	run(t, r, "gcc -O2 -fprofile-generate -c main.c")
	run(t, r, "gcc -fprofile-generate main.o -o app")
	a := loadArt(t, f, "/src/app")
	if !a.PGOInstrumented {
		t.Error("instrumented binary not marked")
	}
	// Optimized rebuild fails without profile data...
	err := runErr(t, r, "gcc -O2 -fprofile-use=/prof/app.profdata -c main.c")
	if !strings.Contains(err.Error(), "profile") {
		t.Errorf("err = %v", err)
	}
	// ...and succeeds once the profile exists.
	f.WriteFile("/prof/app.profdata", []byte("profile-bits"), 0o644)
	run(t, r, "gcc -O2 -fprofile-use=/prof/app.profdata -c main.c")
	run(t, r, "gcc main.o -o app")
	a = loadArt(t, f, "/src/app")
	if !a.PGOOptimized || a.ProfileData == "" {
		t.Errorf("PGO-optimized artifact = %+v", a)
	}
}

func TestISAMarkerBlocksCrossCompile(t *testing.T) {
	f := buildFS()
	f.WriteFile("/src/simd.c", []byte(
		"void kernel(){\n__asm__(\"vfmadd231pd\"); /* isa:x86-64 */\n}\n"), 0o644)
	// Native ISA compiles fine.
	x86 := newX86Runner(f)
	run(t, x86, "gcc -c simd.c")
	// Foreign ISA fails...
	arm := NewRunner(f, GenericRegistry(ISAArm))
	arm.Cwd = "/src"
	err := arm.Run(strings.Fields("gcc -c simd.c"))
	if err == nil || !strings.Contains(err.Error(), "inline assembly") {
		t.Errorf("err = %v", err)
	}
	// ...unless the portable guard is defined (the Fig.-11 script change).
	if err := arm.Run(strings.Fields("gcc -DCOMT_PORTABLE -c simd.c")); err != nil {
		t.Errorf("guarded compile failed: %v", err)
	}
}

func TestCompileCostAccounting(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -O0 -c main.c -o o0.o")
	afterO0 := r.Stats.CompileUnits
	run(t, r, "gcc -O3 -c main.c -o o3.o")
	afterO3 := r.Stats.CompileUnits - afterO0
	if afterO3 <= afterO0 {
		t.Errorf("O3 cost (%f) not greater than O0 cost (%f)", afterO3, afterO0)
	}
	// LTO link adds substantial cost.
	before := r.Stats.CompileUnits
	run(t, r, "gcc -O2 -flto -c main.c")
	run(t, r, "gcc -flto main.o -o app")
	if r.Stats.CompileUnits-before <= afterO3 {
		t.Error("LTO pipeline not costlier than plain compile")
	}
}

func TestUnknownCommand(t *testing.T) {
	r := newX86Runner(buildFS())
	if err := r.Run([]string{"cmake", ".."}); err == nil {
		t.Error("unknown command accepted")
	}
	if r.CanRun([]string{"cmake"}) {
		t.Error("CanRun(cmake) = true")
	}
	if !r.CanRun([]string{"g++", "-c", "x.cc"}) || !r.CanRun([]string{"ar", "rcs", "x.a"}) {
		t.Error("CanRun false for known tools")
	}
}

func TestRanlib(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -c util.c")
	run(t, r, "ar rcs libu.a util.o")
	run(t, r, "ranlib libu.a")
	if err := r.Run([]string{"ranlib", "missing.a"}); err == nil {
		t.Error("ranlib on missing archive succeeded")
	}
}

func TestArtifactEncodeDecodeRoundTrip(t *testing.T) {
	a := &Artifact{
		Kind: KindExecutable, Name: "app", Toolchain: "gnu-gcc-13", Vendor: "gnu",
		TargetISA: ISAx86, March: "x86-64-v3", OptLevel: "3", LTO: true,
		Sources: []string{"/src/a.c"}, DynamicLibs: []string{"/usr/lib/libc.so.6"},
	}
	enc := a.Encode()
	if !IsArtifact(enc) {
		t.Fatal("encoded artifact not recognized")
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != a.Name || back.LTO != a.LTO || back.March != a.March {
		t.Errorf("round trip = %+v", back)
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("Decode accepted garbage")
	}
}

func TestRegistryLookup(t *testing.T) {
	r := GenericRegistry(ISAx86)
	if _, ok := r.Lookup("/usr/bin/g++"); !ok {
		t.Error("path-qualified lookup failed")
	}
	if _, ok := r.Lookup("nvcc"); ok {
		t.Error("unknown tool resolved")
	}
	v := VendorRegistry(ISAArm)
	tc, ok := v.Lookup("gcc")
	if !ok || tc.Vendor != "phytium" {
		t.Errorf("vendor registry gcc = %+v", tc)
	}
}

func TestInfoModeNoOp(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	before := f.Len()
	run(t, r, "gcc --version")
	if f.Len() != before {
		t.Error("--version modified the file system")
	}
}
