// Package comtainer's root benchmark suite regenerates every table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`)
// and benchmarks the substrates. Each BenchmarkTableN / BenchmarkFigureN
// drives the full pipeline — container builds, front-end analysis,
// adapter rebuilds, redirects and simulated runs — and reports the
// headline quantities as benchmark metrics so the paper-vs-measured
// comparison appears directly in the bench output.
package comtainer

import (
	"fmt"
	"sync"
	"testing"

	"comtainer/internal/cclang"
	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/dpkg"
	"comtainer/internal/experiments"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/perfmodel"
	"comtainer/internal/sysprofile"
	"comtainer/internal/tarfs"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// env is shared: pipelines cache across benchmarks.
var (
	env     = experiments.NewEnvironment()
	fig9Mu  sync.Mutex
	fig9Mem = map[string][]experiments.Fig9Row{}
)

func fig9Rows(b *testing.B, sys string) []experiments.Fig9Row {
	b.Helper()
	fig9Mu.Lock()
	defer fig9Mu.Unlock()
	if rows, ok := fig9Mem[sys]; ok {
		return rows
	}
	rows, err := experiments.Figure9(env, sys)
	if err != nil {
		b.Fatal(err)
	}
	fig9Mem[sys] = rows
	return rows
}

// --- One benchmark per table and figure ---

func BenchmarkTable1Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.RenderTable1()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(len(sysprofile.Both())), "systems")
	b.ReportMetric(float64(sysprofile.X86Cluster().Nodes), "nodes/system")
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RenderTable2()) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(len(workloads.AllRefs())), "workloads")
	b.ReportMetric(float64(len(workloads.Apps())), "apps")
}

func BenchmarkFigure3LuleshMotivation(b *testing.B) {
	var rows []experiments.Figure3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure3(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: libo+cxxo cut ~50% (x86) / ~72% (aarch64); lto +17.5%, pgo +9.6%.
	x86 := rows[0]
	b.ReportMetric((1-x86.Cxxo/x86.Cost)*100, "x86-cut-%")
	b.ReportMetric((1-rows[1].Cxxo/rows[1].Cost)*100, "arm-cut-%")
	b.ReportMetric((x86.Cxxo/x86.LTO-1)*100, "x86-lto-%")
	b.ReportMetric((x86.LTO/x86.PGO-1)*100, "x86-pgo-%")
}

func BenchmarkFigure9PerformanceRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig9Mu.Lock()
		fig9Mem = map[string][]experiments.Fig9Row{}
		fig9Mu.Unlock()
		for _, sys := range []string{"x86-64", "aarch64"} {
			fig9Rows(b, sys)
		}
	}
	// Paper: avg improvement 96.3% (x86) / 66.5% (aarch64); adapted ≈ native.
	ax := experiments.Averages(fig9Rows(b, "x86-64"))
	aa := experiments.Averages(fig9Rows(b, "aarch64"))
	b.ReportMetric(ax.AvgImprovement*100, "x86-improv-%")
	b.ReportMetric(aa.AvgImprovement*100, "arm-improv-%")
	b.ReportMetric(ax.Adapted, "x86-adapted-s")
	b.ReportMetric(ax.Native, "x86-native-s")
	b.ReportMetric(aa.Adapted, "arm-adapted-s")
	b.ReportMetric(aa.Native, "arm-native-s")
}

func BenchmarkFigure10RelativeTime(b *testing.B) {
	var avgX, avgA float64
	for i := 0; i < b.N; i++ {
		for _, sys := range []string{"x86-64", "aarch64"} {
			rows := experiments.Figure10(fig9Rows(b, sys))
			var sum float64
			for _, r := range rows {
				sum += r.Adapted/r.Optimized - 1
			}
			if sys == "x86-64" {
				avgX = sum / float64(len(rows))
			} else {
				avgA = sum / float64(len(rows))
			}
		}
	}
	// Paper: LTO+PGO beat adapted by ~8% (x86) / ~5.6% (aarch64).
	b.ReportMetric(avgX*100, "x86-ltopgo-%")
	b.ReportMetric(avgA*100, "arm-ltopgo-%")
}

func BenchmarkTable3ImageSizes(b *testing.B) {
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	byApp := map[string]experiments.Table3Row{}
	var maxFrac float64
	for _, r := range rows {
		byApp[r.App] = r
		if f := r.Cache / r.ImageX86; f > maxFrac {
			maxFrac = f
		}
	}
	// Paper: comd 170.36/94.87 MiB, lammps cache 14.42, openmx 23.99,
	// cache ≤ 7.1% of the x86 image.
	b.ReportMetric(byApp["comd"].ImageX86, "comd-x86-MiB")
	b.ReportMetric(byApp["comd"].ImageArm, "comd-arm-MiB")
	b.ReportMetric(byApp["lammps"].Cache, "lammps-cache-MiB")
	b.ReportMetric(byApp["openmx"].Cache, "openmx-cache-MiB")
	b.ReportMetric(maxFrac*100, "max-cache-%")
}

func BenchmarkFigure11CrossISA(b *testing.B) {
	var rows []experiments.Fig11Row
	var failed []string
	var err error
	for i := 0; i < b.N; i++ {
		rows, failed, err = experiments.Figure11(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sumC, sumX int
	for _, r := range rows {
		sumC += r.CoMtainer
		sumX += r.XBuild
	}
	// Paper: ~5 lines with coMtainer vs ~47 cross-building (~10%).
	b.ReportMetric(float64(sumC)/float64(len(rows)), "comtainer-lines")
	b.ReportMetric(float64(sumX)/float64(len(rows)), "xbuild-lines")
	b.ReportMetric(float64(len(rows)), "crossed-apps")
	b.ReportMetric(float64(len(failed)), "failed-apps")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationAdapterChains measures lulesh x86 time under partial
// adapter chains, isolating each optimization's contribution.
func BenchmarkAblationAdapterChains(b *testing.B) {
	ref, err := experiments.RefByID("lulesh")
	if err != nil {
		b.Fatal(err)
	}
	sys := sysprofile.X86Cluster()
	user, err := core.NewUserSide(sys.ISA)
	if err != nil {
		b.Fatal(err)
	}
	res, err := user.BuildExtended(ref.App)
	if err != nil {
		b.Fatal(err)
	}
	chains := []struct {
		name     string
		adapters []adapter.Adapter
		generic  bool
	}{
		{"libo-only", []adapter.Adapter{adapter.Libo()}, true},
		{"cxxo-only", []adapter.Adapter{adapter.Toolchain()}, false},
		{"libo+cxxo", adapter.DefaultAdapted(), false},
		{"libo+cxxo+lto", adapter.DefaultOptimized(), false},
	}
	times := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, c := range chains {
			system, err := core.NewSystemSide(sys)
			if err != nil {
				b.Fatal(err)
			}
			if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
				b.Fatal(err)
			}
			reg := sys.Toolchains
			if c.generic {
				reg = sys.GenericToolchains
			}
			if _, _, err := system.RebuildWith(res.DistTag, c.adapters, nil, reg); err != nil {
				b.Fatal(err)
			}
			if _, err := system.Redirect(res.DistTag); err != nil {
				b.Fatal(err)
			}
			out, err := system.Run(res.DistTag+".redirect", ref, 1)
			if err != nil {
				b.Fatal(err)
			}
			times[c.name] = out.Seconds
		}
	}
	for name, t := range times {
		b.ReportMetric(t, name+"-s")
	}
}

// BenchmarkAblationMarchLevels measures how much of the vendor-compiler
// gain comes from micro-architecture targeting alone.
func BenchmarkAblationMarchLevels(b *testing.B) {
	ref, err := experiments.RefByID("openmx.pt13")
	if err != nil {
		b.Fatal(err)
	}
	sys := sysprofile.X86Cluster()
	user, err := core.NewUserSide(sys.ISA)
	if err != nil {
		b.Fatal(err)
	}
	res, err := user.BuildExtended(ref.App)
	if err != nil {
		b.Fatal(err)
	}
	levels := []string{"x86-64", "x86-64-v3", "icelake-server"}
	times := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, march := range levels {
			system, err := core.NewSystemSide(sys)
			if err != nil {
				b.Fatal(err)
			}
			if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
				b.Fatal(err)
			}
			chain := []adapter.Adapter{adapter.Libo(), adapter.March(march)}
			if _, _, err := system.Rebuild(res.DistTag, chain, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := system.Redirect(res.DistTag); err != nil {
				b.Fatal(err)
			}
			out, err := system.Run(res.DistTag+".redirect", ref, 16)
			if err != nil {
				b.Fatal(err)
			}
			times[march] = out.Seconds
		}
	}
	for march, t := range times {
		b.ReportMetric(t, "march-"+march+"-s")
	}
}

// BenchmarkLTOCompileCost quantifies the compile-time price of LTO that
// makes it "prohibitive on the user side, yet feasible on the system side"
// (paper §3).
func BenchmarkLTOCompileCost(b *testing.B) {
	app, err := workloads.Find("openmx")
	if err != nil {
		b.Fatal(err)
	}
	sys := sysprofile.X86Cluster()
	var plain, lto float64
	for i := 0; i < b.N; i++ {
		for _, withLTO := range []bool{false, true} {
			fs := fsim.New()
			for name, content := range app.Sources(sys.ISA) {
				fs.WriteFile("/w/"+name, []byte(content), 0o644)
			}
			runner := toolchain.NewRunner(fs, sys.Toolchains)
			runner.Cwd = "/w"
			flags := []string{"-O2"}
			if withLTO {
				flags = append(flags, "-flto")
			}
			var objs []string
			for j := 0; j < app.NumSrcFiles; j++ {
				src := fmt.Sprintf("%s_%02d.c", app.Name, j)
				obj := fmt.Sprintf("%s_%02d.o", app.Name, j)
				argv := append(append([]string{"gcc"}, flags...), "-c", src, "-o", obj)
				if err := runner.Run(argv); err != nil {
					b.Fatal(err)
				}
				objs = append(objs, obj)
			}
			link := append(append([]string{"gcc"}, flags...), objs...)
			link = append(link, "-o", "app")
			if err := runner.Run(link); err != nil {
				b.Fatal(err)
			}
			if withLTO {
				lto = runner.Stats.CompileUnits
			} else {
				plain = runner.Stats.CompileUnits
			}
		}
	}
	b.ReportMetric(plain, "plain-units")
	b.ReportMetric(lto, "lto-units")
	b.ReportMetric(lto/plain, "lto-cost-x")
}

// BenchmarkScalingLuleshNodes sweeps node counts on the x86-64 cluster
// and reports the original-over-adapted ratio at each scale. On this
// system the fallback fabric path is nearly as good as the native one, so
// as LULESH turns communication-bound the compute-side adaptation win is
// diluted — the paper's observation that the 16-node improvement (Fig 9)
// "becomes unobvious compared with the result in Figure 3" (one node).
func BenchmarkScalingLuleshNodes(b *testing.B) {
	ref, err := experiments.RefByID("lulesh")
	if err != nil {
		b.Fatal(err)
	}
	ratios := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{1, 2, 4, 8, 16} {
			times, err := env.SchemeTimes("x86-64", ref, nodes)
			if err != nil {
				b.Fatal(err)
			}
			ratios[nodes] = times.Original / times.Adapted
		}
	}
	for nodes, r := range ratios {
		b.ReportMetric(r, fmt.Sprintf("n%02d-orig/adapted", nodes))
	}
	if ratios[16] >= ratios[1] {
		b.Errorf("communication should dilute the x86 gap with scale: n1=%.2f n16=%.2f", ratios[1], ratios[16])
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkTarMarshal(b *testing.B) {
	fs := fsim.New()
	for i := 0; i < 100; i++ {
		fs.WriteFile(fmt.Sprintf("/usr/lib/f%03d", i), make([]byte, 512), 0o644)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tarfs.Marshal(fs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayerApply(b *testing.B) {
	base := fsim.New()
	layer := fsim.New()
	for i := 0; i < 200; i++ {
		base.WriteFile(fmt.Sprintf("/base/f%03d", i), []byte("x"), 0o644)
		if i%3 == 0 {
			layer.WriteFile(fmt.Sprintf("/base/f%03d", i), []byte("y"), 0o644)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsim.Apply(base, layer)
	}
}

func BenchmarkDebVersionCompare(b *testing.B) {
	a, c := dpkg.Version("2:1.0~rc1+dfsg-3ubuntu2"), dpkg.Version("2:1.0~rc1+dfsg-3ubuntu10")
	for i := 0; i < b.N; i++ {
		if a.Compare(c) >= 0 {
			b.Fatal("wrong order")
		}
	}
}

func BenchmarkCclangParse(b *testing.B) {
	argv := []string{"g++", "-O3", "-march=icelake-server", "-mtune=native", "-flto",
		"-fprofile-use=/p/a.profdata", "-I", "include", "-Iother", "-DNDEBUG",
		"-Wall", "-Wextra", "-std=c++17", "-c", "lulesh.cc", "-o", "lulesh.o"}
	for i := 0; i < b.N; i++ {
		cmd, err := cclang.Parse(argv)
		if err != nil {
			b.Fatal(err)
		}
		if cmd.OptLevel() != "3" {
			b.Fatal("parse broken")
		}
	}
}

func BenchmarkStorePut(b *testing.B) {
	store := oci.NewStore()
	blob := make([]byte, 4096)
	b.SetBytes(int64(len(blob)))
	for i := 0; i < b.N; i++ {
		blob[0] = byte(i)
		blob[1] = byte(i >> 8)
		blob[2] = byte(i >> 16)
		store.Put(blob)
	}
}

func BenchmarkPerfModelEstimate(b *testing.B) {
	sys := sysprofile.X86Cluster()
	ref, err := experiments.RefByID("comd")
	if err != nil {
		b.Fatal(err)
	}
	fs := fsim.New()
	db := dpkg.NewDB()
	idx := sysprofile.GenericIndex(sys.ISA)
	for _, name := range []string{"libc6", "libm6", "libopenmpi3"} {
		p, _ := idx.Latest(name)
		if err := db.InstallWithDeps(fs, idx, p); err != nil {
			b.Fatal(err)
		}
	}
	bin := &toolchain.Artifact{
		Kind: toolchain.KindExecutable, Name: "comd", TargetISA: sys.ISA,
		March: "x86-64", OptLevel: "2",
		DynamicLibs: []string{"/usr/lib/libc.so.6", "/usr/lib/libm.so.6", "/usr/lib/libmpi.so.40"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.Estimate(sys, ref, bin, fs, 16); err != nil {
			b.Fatal(err)
		}
	}
}
