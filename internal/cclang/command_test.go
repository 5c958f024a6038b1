package cclang

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, argv ...string) *Command {
	t.Helper()
	c, err := Parse(argv)
	if err != nil {
		t.Fatalf("Parse(%v): %v", argv, err)
	}
	return c
}

func TestParseCompile(t *testing.T) {
	c := mustParse(t, "gcc", "-O2", "-march=x86-64", "-I", "include", "-Iother", "-DNDEBUG", "-c", "src/main.c", "-o", "build/main.o")
	if c.Mode() != ModeCompile {
		t.Errorf("Mode = %v", c.Mode())
	}
	if got := c.Inputs(); !reflect.DeepEqual(got, []string{"src/main.c"}) {
		t.Errorf("Inputs = %v", got)
	}
	out, ok := c.Output()
	if !ok || out != "build/main.o" {
		t.Errorf("Output = %q, %v", out, ok)
	}
	if c.OptLevel() != "2" {
		t.Errorf("OptLevel = %q", c.OptLevel())
	}
	if m, ok := c.March(); !ok || m != "x86-64" {
		t.Errorf("March = %q, %v", m, ok)
	}
	if got := c.Defines(); !reflect.DeepEqual(got, []string{"NDEBUG"}) {
		t.Errorf("Defines = %v", got)
	}
}

func TestParseLink(t *testing.T) {
	c := mustParse(t, "g++", "main.o", "util.o", "-L/opt/blas/lib", "-lblas", "-lm", "-o", "app", "-flto", "-fopenmp", "-pthread")
	if c.Mode() != ModeLink {
		t.Errorf("Mode = %v", c.Mode())
	}
	if got := c.Libs(); !reflect.DeepEqual(got, []string{"blas", "m"}) {
		t.Errorf("Libs = %v", got)
	}
	if got := c.LibDirs(); !reflect.DeepEqual(got, []string{"/opt/blas/lib"}) {
		t.Errorf("LibDirs = %v", got)
	}
	if !c.LTO() {
		t.Error("LTO not detected")
	}
	if !c.OpenMP() {
		t.Error("OpenMP not detected")
	}
	if c.Language() != "c++" {
		t.Errorf("Language = %q", c.Language())
	}
}

func TestModeLastWinsAndInfo(t *testing.T) {
	c := mustParse(t, "gcc", "-E", "-c", "a.c")
	if c.Mode() != ModeCompile {
		t.Errorf("Mode = %v, want compile (last wins)", c.Mode())
	}
	c = mustParse(t, "gcc", "--version")
	if c.Mode() != ModeInfo {
		t.Errorf("Mode = %v, want info", c.Mode())
	}
}

func TestOptLevelVariants(t *testing.T) {
	cases := map[string]string{
		"-O0": "0", "-O1": "1", "-O2": "2", "-O3": "3",
		"-Os": "s", "-Ofast": "fast", "-Og": "g", "-O": "1",
	}
	for flag, want := range cases {
		c := mustParse(t, "gcc", flag, "-c", "a.c")
		if got := c.OptLevel(); got != want {
			t.Errorf("OptLevel(%s) = %q, want %q", flag, got, want)
		}
	}
	// Later flag wins.
	c := mustParse(t, "gcc", "-O3", "-O0", "-c", "a.c")
	if c.OptLevel() != "0" {
		t.Errorf("OptLevel = %q, want 0", c.OptLevel())
	}
	// No flag at all.
	c = mustParse(t, "gcc", "-c", "a.c")
	if c.OptLevel() != "0" {
		t.Errorf("default OptLevel = %q", c.OptLevel())
	}
}

func TestLTONegation(t *testing.T) {
	c := mustParse(t, "gcc", "-flto", "-fno-lto", "-c", "a.c")
	if c.LTO() {
		t.Error("-fno-lto did not cancel -flto")
	}
	c = mustParse(t, "gcc", "-flto=8", "-c", "a.c")
	if !c.LTO() {
		t.Error("-flto=8 not detected")
	}
}

func TestProfileFlags(t *testing.T) {
	c := mustParse(t, "gcc", "-fprofile-generate=/prof", "-c", "a.c")
	dir, on := c.ProfileGenerate()
	if !on || dir != "/prof" {
		t.Errorf("ProfileGenerate = %q, %v", dir, on)
	}
	c = mustParse(t, "gcc", "-fprofile-use", "-c", "a.c")
	if _, on := c.ProfileUse(); !on {
		t.Error("ProfileUse not detected")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	argvs := [][]string{
		{"gcc", "-O2", "-c", "main.c", "-o", "main.o"},
		{"g++", "-std=c++17", "-Iinclude", "-I", "sep", "-Wall", "-Wextra", "-c", "a.cc"},
		{"gcc", "a.o", "b.o", "-lm", "-o", "app"},
		{"gfortran", "-O3", "-march=armv8-a", "-funroll-loops", "-c", "solve.f90"},
		{"gcc", "-shared", "-fPIC", "x.o", "-o", "libx.so"},
		{"gcc", "-Wl,-rpath,/opt/lib", "-L", "/opt/lib", "a.o", "-o", "a"},
		{"mpicc", "-DUSE_MPI", "-O2", "lulesh.cc", "-o", "lulesh", "-lmpi"},
	}
	for _, argv := range argvs {
		c := mustParse(t, argv...)
		got := c.Render()
		if !reflect.DeepEqual(got, argv) {
			t.Errorf("Render(%v) = %v", argv, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := [][]string{
		{},
		{"gcc", "-o"},               // missing separate value
		{"gcc", "-I"},               // missing joined-or-separate value
		{"gcc", "-Qbogus"},          // unknown
		{"gcc", "--bogus-long-opt"}, // matched by -- family? ensure it's tolerated or erred consistently
	}
	for i, argv := range bad[:4] {
		if _, err := Parse(argv); err == nil {
			t.Errorf("case %d: Parse(%v) succeeded", i, argv)
		}
	}
}

func TestDefaultOutputs(t *testing.T) {
	c := mustParse(t, "gcc", "-c", "src/kernel.c", "phys.c")
	if got := []string{c.DefaultOutput("src/kernel.c"), c.DefaultOutput("phys.c")}; !reflect.DeepEqual(got, []string{"kernel.o", "phys.o"}) {
		t.Errorf("default outputs = %v", got)
	}
	c = mustParse(t, "gcc", "main.o")
	if got := c.DefaultOutput("main.o"); got != "a.out" {
		t.Errorf("default output = %q", got)
	}
}

func TestRewriteSetters(t *testing.T) {
	c := mustParse(t, "gcc", "-O1", "-march=x86-64", "-c", "a.c", "-o", "a.o")
	c.SetMarch("icelake-server")
	c.SetMtune("native")
	if err := c.AddFlag("-flto"); err != nil {
		t.Fatal(err)
	}
	if m, _ := c.March(); m != "icelake-server" {
		t.Errorf("March = %q", m)
	}
	if m, _ := c.Mtune(); m != "native" {
		t.Errorf("Mtune = %q", m)
	}
	if !c.LTO() {
		t.Error("AddFlag(-flto) had no effect")
	}
	// Inputs/outputs untouched by rewriting.
	if got := c.Inputs(); !reflect.DeepEqual(got, []string{"a.c"}) {
		t.Errorf("Inputs = %v", got)
	}
	out, _ := c.Output()
	if out != "a.o" {
		t.Errorf("Output = %q", out)
	}
	// Only one -march token remains.
	count := 0
	for _, tok := range c.Tokens {
		if tok.Opt == "-m" && strings.HasPrefix(tok.Value, "arch=") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("found %d -march tokens", count)
	}
}

func TestRemoveFlag(t *testing.T) {
	c := mustParse(t, "gcc", "-flto", "-O2", "a.c", "-c")
	c.RemoveFlag("-flto")
	if c.LTO() {
		t.Error("RemoveFlag(-flto) had no effect")
	}
	if got := c.Inputs(); !reflect.DeepEqual(got, []string{"a.c"}) {
		t.Errorf("Inputs = %v", got)
	}
}

func TestCategoryClassification(t *testing.T) {
	c := mustParse(t, "gcc", "-fPIC", "-funroll-loops", "-Wall", "-mavx2", "-c", "a.c")
	cats := map[string]Category{}
	for _, tok := range c.Tokens {
		if tok.Opt != "" {
			cats[tok.Opt+tok.Value] = tok.Category
		}
	}
	if cats["-fPIC"] != CatCodegen {
		t.Errorf("-fPIC category = %v", cats["-fPIC"])
	}
	if cats["-funroll-loops"] != CatOptimization {
		t.Errorf("-funroll-loops category = %v", cats["-funroll-loops"])
	}
	if cats["-Wall"] != CatWarning {
		t.Errorf("-Wall category = %v", cats["-Wall"])
	}
	if cats["-mavx2"] != CatMachine {
		t.Errorf("-mavx2 category = %v", cats["-mavx2"])
	}
}

func TestFileKindPredicates(t *testing.T) {
	if !IsSourceFile("a.c") || !IsSourceFile("b.f90") || !IsSourceFile("x.cc") {
		t.Error("source predicate too strict")
	}
	if IsSourceFile("a.o") || IsSourceFile("lib.a") {
		t.Error("source predicate too loose")
	}
	if !IsObjectFile("a.o") || !IsArchiveFile("lib.a") {
		t.Error("object/archive predicates wrong")
	}
}

func TestLanguageDetection(t *testing.T) {
	cases := map[string]string{
		"gcc": "c", "cc": "c", "mpicc": "c",
		"g++": "c++", "c++": "c++", "mpicxx": "c++", "/usr/bin/g++-12": "c++",
		"gfortran": "fortran", "mpifort": "fortran",
	}
	for tool, want := range cases {
		c := mustParse(t, tool, "-c", "x.c")
		if got := c.Language(); got != want {
			t.Errorf("Language(%s) = %q, want %q", tool, got, want)
		}
	}
}

// Property: parse→render→parse is a fixed point, and semantics survive.
func TestPropertyParseRenderFixedPoint(t *testing.T) {
	pool := [][]string{
		{"gcc", "-O2", "-c", "m.c", "-o", "m.o"},
		{"g++", "-O3", "-march=native", "-flto", "a.o", "b.o", "-lm", "-o", "app"},
		{"gfortran", "-Iinc", "-DX=1", "-c", "f.f90"},
		{"gcc", "-shared", "-fPIC", "-o", "lib.so", "p.o"},
		{"mpicc", "-fprofile-generate", "-O2", "-c", "k.c"},
	}
	f := func(idx uint8) bool {
		argv := pool[int(idx)%len(pool)]
		c1, err := Parse(argv)
		if err != nil {
			return false
		}
		r1 := c1.Render()
		c2, err := Parse(r1)
		if err != nil {
			return false
		}
		r2 := c2.Render()
		return reflect.DeepEqual(r1, r2) &&
			c1.Mode() == c2.Mode() &&
			c1.OptLevel() == c2.OptLevel() &&
			reflect.DeepEqual(c1.Inputs(), c2.Inputs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArchiveParse(t *testing.T) {
	a, err := ParseArchive([]string{"ar", "rcs", "libphysics.a", "eos.o", "hydro.o"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Archive != "libphysics.a" || len(a.Members) != 2 || !a.Creates() {
		t.Errorf("parsed %+v", a)
	}
	if got := a.Render(); !reflect.DeepEqual(got, []string{"ar", "rcs", "libphysics.a", "eos.o", "hydro.o"}) {
		t.Errorf("Render = %v", got)
	}
	for _, bad := range [][]string{
		{"ar"},
		{"gcc", "rcs", "x.a"},
		{"ar", "Z!", "x.a"},
		{"ar", "rcs", "not-an-archive.o"},
	} {
		if _, err := ParseArchive(bad); err == nil {
			t.Errorf("ParseArchive(%v) succeeded", bad)
		}
	}
}

func TestOptionCount(t *testing.T) {
	if len(exact) < 60 {
		t.Errorf("option table suspiciously small: %d", len(exact))
	}
}
