package adapter

import (
	"strings"
	"testing"

	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// fixtureModels returns models with two compile commands and one link,
// plus the given source contents in an SrcFS.
func fixtureModels(compileFlags []string, sources map[string]string) (*model.Models, *fsim.FS) {
	g := model.NewBuildGraph()
	srcFS := fsim.New()
	var objIDs []model.NodeID
	seq := 0
	var srcPaths []string
	for p, content := range sources {
		srcFS.WriteFile(p, []byte(content), 0o644)
		srcPaths = append(srcPaths, p)
	}
	// Deterministic order.
	for _, p := range srcFS.Paths() {
		if !strings.HasSuffix(p, ".c") {
			continue
		}
		s := g.AddSource(p)
		obj := strings.TrimSuffix(p, ".c") + ".o"
		argv := append([]string{"gcc"}, compileFlags...)
		argv = append(argv, "-c", p, "-o", obj)
		g.AddProduct(obj, model.KindObject,
			&model.CompilationModel{Kind: "cc", Argv: argv, Cwd: "/w", Seq: seq},
			[]model.NodeID{s.ID})
		seq++
		objIDs = append(objIDs, g.Nodes[len(g.Nodes)-1].ID)
	}
	linkArgv := []string{"gcc"}
	for _, n := range g.Nodes {
		if n.Kind == model.KindObject {
			linkArgv = append(linkArgv, n.Path)
		}
	}
	linkArgv = append(linkArgv, "-o", "/w/app")
	g.AddProduct("/w/app", model.KindExecutable,
		&model.CompilationModel{Kind: "cc", Argv: linkArgv, Cwd: "/w", Seq: seq},
		objIDs)
	m := &model.Models{
		Graph:       g,
		SourcePaths: srcPaths,
		Installed:   map[string]string{"/app/x": "/w/app"},
		BuildISA:    toolchain.ISAx86,
		Image: model.ImageModel{
			Packages: []model.PackageRef{
				{Name: "libopenblas0", Version: "0.3.26+ds-1"},
				{Name: "libc6", Version: "2.39-0ubuntu8"},
				{Name: "exotic-pkg", Version: "1.0"},
			},
		},
	}
	return m, srcFS
}

func apply(t *testing.T, ad Adapter, m *model.Models, srcFS *fsim.FS, sys *sysprofile.System) (*Report, error) {
	t.Helper()
	r := &Report{}
	ctx := &Context{System: sys, Models: m, SrcFS: srcFS, Report: r}
	return r, ad.Apply(ctx)
}

func ccArgvOf(t *testing.T, m *model.Models, path string) []string {
	t.Helper()
	n, ok := m.Graph.ByPath(path)
	if !ok {
		t.Fatalf("no node %s", path)
	}
	return n.Cmd.Argv
}

func TestToolchainAdapter(t *testing.T) {
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": "x", "/w/b.c": "y"})
	r, err := apply(t, Toolchain(), m, srcFS, sysprofile.X86Cluster())
	if err != nil {
		t.Fatal(err)
	}
	if r.ChangedCommands != 3 {
		t.Errorf("ChangedCommands = %d, want 3", r.ChangedCommands)
	}
	argv := strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if !strings.Contains(argv, "-march=native") || !strings.Contains(argv, "-mtune=native") {
		t.Errorf("argv = %s", argv)
	}
}

func TestLiboAdapter(t *testing.T) {
	m, srcFS := fixtureModels(nil, map[string]string{"/w/a.c": "x"})
	r, err := apply(t, Libo(), m, srcFS, sysprofile.X86Cluster())
	if err != nil {
		t.Fatal(err)
	}
	plan := map[string]bool{}
	for _, p := range r.PackagePlan {
		plan[p] = true
	}
	if !plan["libopenblas0"] || !plan["libc6"] {
		t.Errorf("plan = %v", r.PackagePlan)
	}
	if plan["exotic-pkg"] {
		t.Error("unknown package scheduled for system install")
	}
	noted := strings.Join(r.Notes, "\n")
	if !strings.Contains(noted, "optimized") {
		t.Errorf("notes = %q", noted)
	}
}

func TestLTOAdapterIdempotent(t *testing.T) {
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": "x"})
	sys := sysprofile.X86Cluster()
	if _, err := apply(t, LTO(), m, srcFS, sys); err != nil {
		t.Fatal(err)
	}
	argv := strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if !strings.Contains(argv, "-flto") {
		t.Errorf("argv = %s", argv)
	}
	// Second application changes nothing.
	r, err := apply(t, LTO(), m, srcFS, sys)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChangedCommands != 0 {
		t.Errorf("second LTO pass changed %d commands", r.ChangedCommands)
	}
	if strings.Count(strings.Join(ccArgvOf(t, m, "/w/a.o"), " "), "-flto") != 1 {
		t.Error("-flto duplicated")
	}
}

func TestPGOPhases(t *testing.T) {
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": "x"})
	sys := sysprofile.X86Cluster()
	if _, err := apply(t, PGOInstrument(), m, srcFS, sys); err != nil {
		t.Fatal(err)
	}
	argv := strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if !strings.Contains(argv, "-fprofile-generate") {
		t.Errorf("instrument argv = %s", argv)
	}
	// Phase two replaces, not stacks.
	if _, err := apply(t, PGOUse("/p/app.profdata"), m, srcFS, sys); err != nil {
		t.Fatal(err)
	}
	argv = strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if strings.Contains(argv, "-fprofile-generate") {
		t.Errorf("instrumentation flag survived: %s", argv)
	}
	if !strings.Contains(argv, "-fprofile-use=/p/app.profdata") {
		t.Errorf("use argv = %s", argv)
	}
}

func TestCrossISAStripsForeignFlags(t *testing.T) {
	m, srcFS := fixtureModels([]string{"-O2", "-mavx2", "-march=x86-64-v2"},
		map[string]string{"/w/a.c": "plain portable code"})
	r, err := apply(t, CrossISA(), m, srcFS, sysprofile.ArmCluster())
	if err != nil {
		t.Fatal(err)
	}
	argv := strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if strings.Contains(argv, "avx2") || strings.Contains(argv, "x86-64-v2") {
		t.Errorf("foreign flags survived: %s", argv)
	}
	if r.ChangedCommands == 0 {
		t.Error("no commands reported changed")
	}
	if m.BuildISA != toolchain.ISAArm {
		t.Errorf("BuildISA = %s", m.BuildISA)
	}
}

func TestCrossISAGuardedSources(t *testing.T) {
	guarded := "#ifndef COMT_PORTABLE\n__asm__(\"x\"); /* isa:x86-64 */\n#endif\n"
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": guarded})
	if _, err := apply(t, CrossISA(), m, srcFS, sysprofile.ArmCluster()); err != nil {
		t.Fatal(err)
	}
	argv := strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if !strings.Contains(argv, "-DCOMT_PORTABLE") {
		t.Errorf("guard define not added: %s", argv)
	}
}

func TestCrossISAMandatorySourcesFail(t *testing.T) {
	mandatory := "__asm__(\"x\"); /* isa:x86-64 */\n"
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": mandatory})
	if _, err := apply(t, CrossISA(), m, srcFS, sysprofile.ArmCluster()); err == nil {
		t.Error("mandatory ISA-specific source crossed")
	}
}

// TestCrossISAKeepsValuedGuard: a command that already defines the
// guard with a value is on the portable path; the adapter adds no
// second -D and counts no change.
func TestCrossISAKeepsValuedGuard(t *testing.T) {
	guarded := "#ifndef COMT_PORTABLE\n__asm__(\"x\"); /* isa:x86-64 */\n#endif\n"
	m, srcFS := fixtureModels([]string{"-O2", "-DCOMT_PORTABLE=1"}, map[string]string{"/w/a.c": guarded})
	r, err := apply(t, CrossISA(), m, srcFS, sysprofile.ArmCluster())
	if err != nil {
		t.Fatal(err)
	}
	argv := strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if r.ChangedCommands != 0 || strings.Count(argv, "COMT_PORTABLE") != 1 {
		t.Errorf("ChangedCommands = %d, argv = %s; want 0 and the one guard it had", r.ChangedCommands, argv)
	}
}

// TestCrossISAScansEveryMarker: a source whose first marker is the
// target's own ISA and whose second is foreign and unguarded is refused.
func TestCrossISAScansEveryMarker(t *testing.T) {
	mixed := "__asm__(\"y\"); /* isa:" + toolchain.ISAArm + " */\n__asm__(\"x\"); /* isa:x86-64 */\n"
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": mixed})
	if _, err := apply(t, CrossISA(), m, srcFS, sysprofile.ArmCluster()); err == nil {
		t.Error("a source with unguarded x86-64 code after an aarch64 marker crossed")
	}
}

func TestCrossISASameISANoOp(t *testing.T) {
	m, srcFS := fixtureModels([]string{"-O2", "-mavx2"}, map[string]string{"/w/a.c": "x"})
	r, err := apply(t, CrossISA(), m, srcFS, sysprofile.X86Cluster())
	if err != nil {
		t.Fatal(err)
	}
	if r.ChangedCommands != 0 {
		t.Error("same-ISA cross adapter rewrote commands")
	}
}

func TestMarchAdapter(t *testing.T) {
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": "x"})
	if _, err := apply(t, March("icelake-server"), m, srcFS, sysprofile.X86Cluster()); err != nil {
		t.Fatal(err)
	}
	argv := strings.Join(ccArgvOf(t, m, "/w/a.o"), " ")
	if !strings.Contains(argv, "-march=icelake-server") {
		t.Errorf("argv = %s", argv)
	}
}

func TestDefaultChains(t *testing.T) {
	if len(DefaultAdapted()) != 2 {
		t.Errorf("DefaultAdapted = %d adapters", len(DefaultAdapted()))
	}
	if len(DefaultOptimized()) != 3 {
		t.Errorf("DefaultOptimized = %d adapters", len(DefaultOptimized()))
	}
	names := map[string]bool{}
	for _, a := range DefaultOptimized() {
		names[a.Name()] = true
	}
	if !names["libo"] || !names["cxxo"] || !names["lto"] {
		t.Errorf("chain names = %v", names)
	}
}

func TestAdapterWorksOnClone(t *testing.T) {
	// The backend hands adapters a clone; verify transforming the clone
	// leaves the original untouched (the paper's independent-copy rule).
	m, srcFS := fixtureModels([]string{"-O2"}, map[string]string{"/w/a.c": "x"})
	clone := m.Clone()
	if _, err := apply(t, Toolchain(), clone, srcFS, sysprofile.X86Cluster()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(ccArgvOf(t, m, "/w/a.o"), " "), "native") {
		t.Error("adapter mutation leaked into the original models")
	}
}
