package dpkg

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"comtainer/internal/fsim"
)

func pkg(name, version string, deps ...Dependency) *Package {
	return &Package{
		Name:         name,
		Version:      Version(version),
		Architecture: "amd64",
		Section:      "libs",
		Depends:      deps,
		Files: []PackageFile{
			{Path: "/usr/lib/" + name + ".so", Data: []byte(name + " " + version), Mode: 0o644},
		},
	}
}

func TestParseDependency(t *testing.T) {
	d, err := ParseDependency("libc6 (>= 2.36)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "libc6" || d.Op != OpGE || d.Version != "2.36" {
		t.Errorf("parsed %+v", d)
	}
	d, err = ParseDependency("  libm  ")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "libm" || d.Op != OpAny {
		t.Errorf("parsed %+v", d)
	}
	for _, bad := range []string{"", "a b", "x (>= 1", "x (~~ 1)", "x (>= )"} {
		if _, err := ParseDependency(bad); err == nil {
			t.Errorf("ParseDependency(%q) succeeded", bad)
		}
	}
}

func TestDependencyStringRoundTrip(t *testing.T) {
	for _, s := range []string{"libc6 (>= 2.36)", "libm", "zlib1g (= 1.3-1)"} {
		d, err := ParseDependency(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseDependency(d.String())
		if err != nil {
			t.Fatal(err)
		}
		if back != d {
			t.Errorf("round trip %q -> %+v -> %+v", s, d, back)
		}
	}
}

func TestIndexLatestAndFind(t *testing.T) {
	idx := NewIndex()
	idx.Add(pkg("libblas", "3.11.0-1"))
	idx.Add(pkg("libblas", "3.12.0-3"))
	idx.Add(pkg("libblas", "3.12.0-1"))
	latest, ok := idx.Latest("libblas")
	if !ok || latest.Version != "3.12.0-3" {
		t.Errorf("Latest = %v", latest)
	}
	p, ok := idx.Find(Dependency{Name: "libblas", Op: OpLT, Version: "3.12.0-1"})
	if !ok || p.Version != "3.11.0-1" {
		t.Errorf("Find(<<3.12.0-1) = %v", p)
	}
	if _, ok := idx.Find(Dependency{Name: "libblas", Op: OpGE, Version: "4.0"}); ok {
		t.Error("Find matched unsatisfiable constraint")
	}
	if _, ok := idx.Find(Dependency{Name: "nonexistent"}); ok {
		t.Error("Find matched missing package")
	}
}

func TestVirtualProvides(t *testing.T) {
	idx := NewIndex()
	mpi := pkg("vendor-mpi", "5.0")
	mpi.Provides = []string{"mpi"}
	idx.Add(mpi)
	p, ok := idx.Find(Dependency{Name: "mpi"})
	if !ok || p.Name != "vendor-mpi" {
		t.Errorf("virtual provide lookup = %v, %v", p, ok)
	}
	// Versioned constraint must not match a virtual name.
	if _, ok := idx.Find(Dependency{Name: "mpi", Op: OpGE, Version: "1"}); ok {
		t.Error("versioned dep matched virtual provide")
	}
}

func TestResolveTopologicalOrder(t *testing.T) {
	idx := NewIndex()
	idx.Add(pkg("libc6", "2.39-0"))
	idx.Add(pkg("libgfortran5", "14.2.0-1", Dependency{Name: "libc6", Op: OpGE, Version: "2.36"}))
	idx.Add(pkg("libblas", "3.12.0-3", Dependency{Name: "libgfortran5"}))
	idx.Add(pkg("liblapack", "3.12.0-3", Dependency{Name: "libblas"}, Dependency{Name: "libgfortran5"}))

	order, err := idx.Resolve([]Dependency{{Name: "liblapack"}})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, p := range order {
		pos[p.Name] = i
	}
	if !(pos["libc6"] < pos["libgfortran5"] && pos["libgfortran5"] < pos["libblas"] && pos["libblas"] < pos["liblapack"]) {
		var names []string
		for _, p := range order {
			names = append(names, p.Name)
		}
		t.Errorf("order = %v", names)
	}
	if len(order) != 4 {
		t.Errorf("len(order) = %d, want 4 (deduplication)", len(order))
	}
}

func TestResolveMissingAndCycle(t *testing.T) {
	idx := NewIndex()
	idx.Add(pkg("a", "1", Dependency{Name: "b"}))
	idx.Add(pkg("b", "1", Dependency{Name: "a"}))
	if _, err := idx.Resolve([]Dependency{{Name: "a"}}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
	if _, err := idx.Resolve([]Dependency{{Name: "ghost"}}); err == nil {
		t.Error("missing package not reported")
	}
}

func TestInstallAndLoad(t *testing.T) {
	fsys := fsim.New()
	db := NewDB()
	libc := pkg("libc6", "2.39-0")
	app := pkg("lulesh-deps", "1.0", Dependency{Name: "libc6", Op: OpGE, Version: "2.36"})
	if err := db.Install(fsys, libc); err != nil {
		t.Fatal(err)
	}
	if err := db.Install(fsys, app); err != nil {
		t.Fatal(err)
	}
	if !fsys.Exists("/usr/lib/libc6.so") {
		t.Error("package file not written")
	}
	owner, ok := db.OwnerOf("/usr/lib/libc6.so")
	if !ok || owner != "libc6" {
		t.Errorf("OwnerOf = %q, %v", owner, ok)
	}

	// Reload from the image alone.
	db2, err := Load(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.packages) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(db2.packages))
	}
	got, ok := db2.Installed("lulesh-deps")
	if !ok {
		t.Fatal("lulesh-deps not loaded")
	}
	if len(got.Depends) != 1 || got.Depends[0].Name != "libc6" || got.Depends[0].Op != OpGE {
		t.Errorf("Depends = %+v", got.Depends)
	}
	owner, ok = db2.OwnerOf("/usr/lib/libc6.so")
	if !ok || owner != "libc6" {
		t.Errorf("reloaded OwnerOf = %q, %v", owner, ok)
	}
}

func TestInstallWithDeps(t *testing.T) {
	idx := NewIndex()
	idx.Add(pkg("libc6", "2.39-0"))
	idx.Add(pkg("libopenblas", "0.3.26-1", Dependency{Name: "libc6"}))
	app := pkg("hpl", "2.3-1", Dependency{Name: "libopenblas"})
	fsys := fsim.New()
	db := NewDB()
	if err := db.InstallWithDeps(fsys, idx, app); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"libc6", "libopenblas", "hpl"} {
		if _, ok := db.Installed(name); !ok {
			t.Errorf("%s not installed", name)
		}
	}
}

func TestReinstallReplacesFiles(t *testing.T) {
	fsys := fsim.New()
	db := NewDB()
	v1 := &Package{Name: "libfoo", Version: "1.0", Files: []PackageFile{
		{Path: "/usr/lib/libfoo.so.1", Data: []byte("v1"), Mode: 0o644},
		{Path: "/usr/lib/removed-in-v2", Data: []byte("gone"), Mode: 0o644},
	}}
	v2 := &Package{Name: "libfoo", Version: "2.0", Optimized: true, Vendor: "intel", PerfGain: 1.8,
		Files: []PackageFile{
			{Path: "/usr/lib/libfoo.so.1", Data: []byte("v2 optimized"), Mode: 0o644},
		}}
	if err := db.Install(fsys, v1); err != nil {
		t.Fatal(err)
	}
	if err := db.Install(fsys, v2); err != nil {
		t.Fatal(err)
	}
	if fsys.Exists("/usr/lib/removed-in-v2") {
		t.Error("stale file survived upgrade")
	}
	data, err := fsys.ReadFile("/usr/lib/libfoo.so.1")
	if err != nil || string(data) != "v2 optimized" {
		t.Errorf("file content = %q, %v", data, err)
	}
	// Round trip preserves the optimization metadata.
	db2, err := Load(fsys)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db2.Installed("libfoo")
	if !got.Optimized || got.Vendor != "intel" || got.PerfGain != 1.8 {
		t.Errorf("optimization metadata lost: %+v", got)
	}
}

func TestConflicts(t *testing.T) {
	fsys := fsim.New()
	db := NewDB()
	openmpi := pkg("libopenmpi3", "4.1")
	mpich := pkg("libmpich12", "4.2")
	mpich.Conflicts = []Dependency{{Name: "libopenmpi3"}}
	if err := db.Install(fsys, openmpi); err != nil {
		t.Fatal(err)
	}
	if err := db.Install(fsys, mpich); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("conflicting install: %v", err)
	}
	// The reverse direction too: installed package's Conflicts blocks.
	fsys2 := fsim.New()
	db2 := NewDB()
	if err := db2.Install(fsys2, mpich); err != nil {
		t.Fatal(err)
	}
	if err := db2.Install(fsys2, openmpi); err == nil {
		t.Error("installed-side conflict not detected")
	}
	// Upgrading the same package is never a self-conflict.
	v2 := pkg("libmpich12", "4.3")
	v2.Conflicts = []Dependency{{Name: "libopenmpi3"}}
	if err := db2.Install(fsys2, v2); err != nil {
		t.Errorf("self upgrade blocked: %v", err)
	}
	// Versioned conflicts only bite in range.
	fsys3 := fsim.New()
	db3 := NewDB()
	old := pkg("libfoo", "1.0")
	bar := pkg("libbar", "1.0")
	bar.Conflicts = []Dependency{{Name: "libfoo", Op: OpLT, Version: "2.0"}}
	if err := db3.Install(fsys3, old); err != nil {
		t.Fatal(err)
	}
	if err := db3.Install(fsys3, bar); err == nil {
		t.Error("in-range versioned conflict not detected")
	}
	if err := db3.Install(fsys3, pkg("libfoo", "2.1")); err != nil {
		t.Fatal(err)
	}
	if err := db3.Install(fsys3, bar); err != nil {
		t.Errorf("out-of-range conflict blocked: %v", err)
	}
	// Conflicts survive the status-file round trip.
	db4, err := Load(fsys3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db4.Installed("libbar")
	if len(got.Conflicts) != 1 || got.Conflicts[0].Name != "libfoo" {
		t.Errorf("reloaded conflicts = %+v", got.Conflicts)
	}
}

func TestRemove(t *testing.T) {
	fsys := fsim.New()
	db := NewDB()
	p := pkg("libx", "1.0")
	if err := db.Install(fsys, p); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(fsys, "libx"); err != nil {
		t.Fatal(err)
	}
	if fsys.Exists("/usr/lib/libx.so") {
		t.Error("files not removed")
	}
	if len(db.packages) != 0 {
		t.Error("db entry not removed")
	}
	if err := db.Remove(fsys, "libx"); err == nil {
		t.Error("removing missing package succeeded")
	}
}

func TestParseControlMultiStanza(t *testing.T) {
	text := "Package: a\nVersion: 1\n\nPackage: b\nVersion: 2\nDescription: line one\n continued line\n"
	stanzas, err := ParseControl(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(stanzas) != 2 {
		t.Fatalf("got %d stanzas", len(stanzas))
	}
	if !strings.Contains(stanzas[1]["Description"], "continued line") {
		t.Errorf("continuation lost: %q", stanzas[1]["Description"])
	}
}

func TestParseControlErrors(t *testing.T) {
	if _, err := ParseControl(" leading continuation\n"); err == nil {
		t.Error("orphan continuation accepted")
	}
	if _, err := ParseControl("no colon here\n"); err == nil {
		t.Error("malformed field accepted")
	}
}

func TestLoadEmptyImage(t *testing.T) {
	db, err := Load(fsim.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(db.packages) != 0 {
		t.Error("empty image yielded packages")
	}
}

// TestParseControlLineEnds: a "\r" before a line's "\n" is not part of
// the line, and the last line needs no "\n".
func TestParseControlLineEnds(t *testing.T) {
	want, err := ParseControl("Package: a\nVersion: 1\nDescription: one\n two\n\nPackage: b\nVersion: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"Package: a\r\nVersion: 1\r\nDescription: one\r\n two\r\n\r\nPackage: b\r\nVersion: 2\r\n",
		"Package: a\nVersion: 1\nDescription: one\n two\n\nPackage: b\nVersion: 2",
	} {
		got, err := ParseControl(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q parses to %v, want %v", text, got, want)
		}
	}
}

// TestLoadLongField: a field line has no length limit. (A line scanner
// with a 1 MiB buffer refused this status file.)
func TestLoadLongField(t *testing.T) {
	fsys := fsim.New()
	p := pkg("libhuge", "1.0")
	p.Description = strings.Repeat("d", 2<<20)
	if err := NewDB().Install(fsys, p); err != nil {
		t.Fatal(err)
	}
	db, err := Load(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := db.Installed("libhuge"); !ok || got.Description != p.Description {
		t.Errorf("the 2 MiB Description did not load back")
	}
}

// TestInstallWithDepsFailingPartway: the status file, written once per
// InstallWithDeps, still lists what was installed before a failure.
func TestInstallWithDepsFailingPartway(t *testing.T) {
	idx := NewIndex()
	idx.Add(pkg("libc6", "2.39-0"))
	mpich := pkg("libmpich12", "4.2", Dependency{Name: "libc6"})
	mpich.Conflicts = []Dependency{{Name: "libopenmpi3"}}
	idx.Add(mpich)
	fsys := fsim.New()
	db := NewDB()
	if err := db.Install(fsys, pkg("libopenmpi3", "4.1")); err != nil {
		t.Fatal(err)
	}
	err := db.InstallWithDeps(fsys, idx, pkg("app", "1", Dependency{Name: "libmpich12"}))
	if err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("InstallWithDeps = %v, want the libmpich12 conflict", err)
	}
	back, err := Load(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Names(), []string{"libc6", "libopenmpi3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("status file lists %v, want %v", got, want)
	}
}

// TestLoadAllocatesInProportion: Load reads the status file and the file
// lists in place, so what it allocates is a small multiple of their bytes
// plus the packages it builds — no per-call line buffer (a line scanner
// took 1 MiB a call).
func TestLoadAllocatesInProportion(t *testing.T) {
	fsys := fsim.New()
	db := NewDB()
	const packages = 40
	for i := 0; i < packages; i++ {
		p := pkg(fmt.Sprintf("lib%02d", i), "1.2.3-4ubuntu1", Dependency{Name: "libc6", Op: OpGE, Version: "2.36"})
		p.Description = "a library\nwith a second line"
		if err := db.Install(fsys, p); err != nil {
			t.Fatal(err)
		}
	}
	var input int
	for _, p := range append(fsys.Glob(InfoDir+"/*.list"), StatusPath) {
		data, err := fsys.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		input += len(data)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Load(fsys); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(4*input + 2048*packages)
	t.Logf("Load of %d packages, %d status and list bytes: allocated %d (budget %d)", packages, input, got, budget)
	if got > budget {
		t.Errorf("Load of %d packages, %d status and list bytes allocated %d, budget %d (4x + 2 KiB a package)", packages, input, got, budget)
	}
}
