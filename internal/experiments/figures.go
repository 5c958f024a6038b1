package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"comtainer/internal/cachekit"
	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/core/cache"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// RefByID finds a workload reference by its paper-style id.
func RefByID(id string) (workloads.Ref, error) {
	for _, r := range workloads.AllRefs() {
		if r.ID() == id {
			return r, nil
		}
	}
	return workloads.Ref{}, fmt.Errorf("experiments: unknown workload %q", id)
}

// --- Figure 3: the LULESH motivation study ---

// Figure3Row is one system's incremental-optimization series: the generic
// image cost, then library replacement, toolchain swap, LTO and PGO
// applied cumulatively, all on a single node.
type Figure3Row struct {
	System string
	Cost   float64 // generic image (COST in the paper's figure)
	Libo   float64 // + optimized libraries
	Cxxo   float64 // + native toolchain
	LTO    float64 // + link-time optimization
	PGO    float64 // + profile-guided optimization
}

// Figure3 regenerates the motivation study on both systems.
func Figure3(env *Environment) ([]Figure3Row, error) {
	ref, err := RefByID("lulesh")
	if err != nil {
		return nil, err
	}
	var out []Figure3Row
	for _, sys := range sysprofile.Both() {
		p, err := env.Pipeline(sys.Name, "lulesh")
		if err != nil {
			return nil, err
		}
		row, err := p.figure3Row(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// figure3Row runs the generic image and then each incremental stage on
// one node, holding p.mu throughout.
func (p *pipeline) figure3Row(ref workloads.Ref) (Figure3Row, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	row := Figure3Row{System: p.sys.Name}
	var err error
	if row.Cost, err = p.runImage(p.origDesc, ref, 1); err != nil {
		return row, err
	}
	// libo alone: optimized libraries, but the binary stays a stock-
	// toolchain build.
	if row.Libo, err = p.runStage([]adapter.Adapter{adapter.Libo()}, true, ref, 1); err != nil {
		return row, fmt.Errorf("figure 3 libo: %w", err)
	}
	if row.Cxxo, err = p.runStage(adapter.DefaultAdapted(), false, ref, 1); err != nil {
		return row, fmt.Errorf("figure 3 cxxo: %w", err)
	}
	if row.LTO, err = p.runStage(adapter.DefaultOptimized(), false, ref, 1); err != nil {
		return row, fmt.Errorf("figure 3 lto: %w", err)
	}
	if err := p.system.PGOLoop(p.distTag, adapter.DefaultOptimized(), ref, 1); err != nil {
		return row, fmt.Errorf("figure 3 pgo: %w", err)
	}
	row.PGO, err = p.runTagged(ref, 1)
	return row, err
}

// runStage rebuilds and redirects the pipeline's image with one adapter
// chain and runs the result. generic rebuilds under the system's generic
// toolchains, so the binary stays a stock-toolchain build. The caller
// holds p.mu: a stage rewrites the pipeline's redirect tag.
func (p *pipeline) runStage(adapters []adapter.Adapter, generic bool, ref workloads.Ref, nodes int) (float64, error) {
	reg := p.sys.Toolchains
	if generic {
		reg = p.sys.GenericToolchains
	}
	if _, _, err := p.system.RebuildWith(p.distTag, adapters, nil, reg); err != nil {
		return 0, err
	}
	if _, err := p.system.Redirect(p.distTag); err != nil {
		return 0, err
	}
	return p.runTagged(ref, nodes)
}

// runTagged runs the current <dist>.redirect image.
func (p *pipeline) runTagged(ref workloads.Ref, nodes int) (float64, error) {
	res, err := p.system.Run(p.distTag+".redirect", ref, nodes)
	if err != nil {
		return 0, err
	}
	return res.Seconds, nil
}

// RenderFigure3 formats the rows for terminal output.
func RenderFigure3(rows []Figure3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: LULESH single-node performance, generic image vs incremental native optimizations\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %10s\n", "system", "cost(s)", "libo(s)", "cxxo(s)", "lto(s)", "pgo(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.2f %10.2f %10.2f %10.2f %10.2f\n",
			r.System, r.Cost, r.Libo, r.Cxxo, r.LTO, r.PGO)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s: libo+cxxo cut time by %.0f%%; lto adds %.1f%%, pgo adds %.1f%%\n",
			r.System,
			(1-r.Cxxo/r.Cost)*100,
			(r.Cxxo/r.LTO-1)*100,
			(r.LTO/r.PGO-1)*100)
	}
	return b.String()
}

// --- Figures 9 and 10: performance retention and optimization ---

// Fig9Row is one workload's four scheme times.
type Fig9Row struct {
	ID string
	SchemeSet
}

// Figure9 measures all workloads under all four schemes on one system at
// the paper's full 16-node scale. Workloads are measured concurrently
// (bounded by the CPU count); refs of the same application serialize on
// their pipeline.
func Figure9(env *Environment, sysName string) ([]Fig9Row, error) {
	refs := workloads.AllRefs()
	rows := make([]Fig9Row, len(refs))
	err := cachekit.Parallel(len(refs), runtime.GOMAXPROCS(0), func(i int) error {
		times, err := env.SchemeTimes(sysName, refs[i], 16)
		rows[i] = Fig9Row{ID: refs[i].ID(), SchemeSet: times}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig9Averages summarizes a system's rows the way §5.2 reports them.
type Fig9Averages struct {
	Original, Native, Adapted, Optimized float64
	// AvgImprovement is the mean of per-workload (original/native - 1).
	AvgImprovement float64
}

// Averages computes the Figure-9 summary statistics.
func Averages(rows []Fig9Row) Fig9Averages {
	var a Fig9Averages
	for _, r := range rows {
		a.Original += r.Original
		a.Native += r.Native
		a.Adapted += r.Adapted
		a.Optimized += r.Optimized
		a.AvgImprovement += r.Original/r.Native - 1
	}
	n := float64(len(rows))
	if n == 0 {
		return a
	}
	a.Original /= n
	a.Native /= n
	a.Adapted /= n
	a.Optimized /= n
	a.AvgImprovement /= n
	return a
}

// RenderFigure9 formats one system's rows.
func RenderFigure9(sysName string, rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 (%s): execution time (s) per workload and scheme, 16 nodes\n", sysName)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n", "workload", "original", "native", "adapted", "optimized")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.2f %10.2f %10.2f %10.2f\n",
			r.ID, r.Original, r.Native, r.Adapted, r.Optimized)
	}
	a := Averages(rows)
	fmt.Fprintf(&b, "%-14s %10.2f %10.2f %10.2f %10.2f\n", "average", a.Original, a.Native, a.Adapted, a.Optimized)
	fmt.Fprintf(&b, "avg native-vs-original improvement: %.1f%%\n", a.AvgImprovement*100)
	return b.String()
}

// Fig10Row is one workload's times relative to native.
type Fig10Row struct {
	ID        string
	Original  float64
	Adapted   float64
	Optimized float64
}

// Figure10 derives the relative-time view from Figure-9 rows.
func Figure10(rows []Fig9Row) []Fig10Row {
	out := make([]Fig10Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Fig10Row{
			ID:        r.ID,
			Original:  r.Original / r.Native,
			Adapted:   r.Adapted / r.Native,
			Optimized: r.Optimized / r.Native,
		})
	}
	return out
}

// ltoGain is what LTO+PGO gains over the adapted image (§5.3).
func (r Fig10Row) ltoGain() float64 { return r.Adapted/r.Optimized - 1 }

// ltoGains returns the rows' mean LTO+PGO gain and the rows that gain
// the most and the least.
func ltoGains(rows []Fig10Row) (avg float64, best, worst Fig10Row) {
	best, worst = rows[0], rows[0]
	for _, r := range rows {
		avg += r.ltoGain()
		if r.ltoGain() > best.ltoGain() {
			best = r
		}
		if r.ltoGain() < worst.ltoGain() {
			worst = r
		}
	}
	return avg / float64(len(rows)), best, worst
}

// RenderFigure10 formats the relative rows and the §5.3 summary deltas.
func RenderFigure10(sysName string, rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 (%s): execution time relative to native (lower is better)\n", sysName)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "workload", "original", "adapted", "optimized")
	var sumOptVsNative float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.3f %10.3f %10.3f\n", r.ID, r.Original, r.Adapted, r.Optimized)
		sumOptVsNative += 1/r.Optimized - 1
	}
	avg, best, worst := ltoGains(rows)
	fmt.Fprintf(&b, "LTO+PGO vs adapted: avg %+.1f%% (best %s %+.1f%%, worst %s %+.1f%%)\n",
		avg*100, best.ID, best.ltoGain()*100, worst.ID, worst.ltoGain()*100)
	fmt.Fprintf(&b, "optimized vs native: avg %+.1f%%\n", sumOptVsNative/float64(len(rows))*100)
	return b.String()
}

// --- Figure 11: cross-ISA ---

// Fig11Row is one application's build-script line-change effort under the
// two approaches.
type Fig11Row struct {
	App string
	// CoMtainer is the measured change count when coMtainer crosses the
	// ISA: the FROM lines of the two stages plus every build command its
	// cross-ISA adapter had to rewrite.
	CoMtainer int
	// XBuild is the traditional cross-compilation effort (paper-reported;
	// see DESIGN.md).
	XBuild int
}

// Figure11 pulls every x86-64 extended image onto the AArch64 system and
// attempts the cross-ISA rebuild, measuring the script-change effort for
// the apps that succeed and confirming the ISA-bound apps fail.
func Figure11(env *Environment) ([]Fig11Row, []string, error) {
	armSys := sysprofile.ArmCluster()
	var rows []Fig11Row
	var failed []string
	for _, app := range workloads.Apps() {
		user, err := core.NewUserSide(toolchain.ISAx86)
		if err != nil {
			return nil, nil, err
		}
		res, err := user.BuildExtended(app)
		if err != nil {
			return nil, nil, fmt.Errorf("figure 11: building %s: %w", app.Name, err)
		}
		system, err := core.NewSystemSide(armSys)
		if err != nil {
			return nil, nil, err
		}
		if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
			return nil, nil, err
		}
		chain := append([]adapter.Adapter{adapter.CrossISA()}, adapter.DefaultAdapted()...)
		_, report, err := system.Rebuild(res.DistTag, chain, nil)
		if err != nil {
			failed = append(failed, app.Name)
			continue
		}
		if _, err := system.Redirect(res.DistTag); err != nil {
			return nil, nil, fmt.Errorf("figure 11: redirecting %s: %w", app.Name, err)
		}
		// Verify the crossed image actually runs on the ARM cluster.
		ref := workloads.Ref{App: app, Workload: app.Workloads[0]}
		if _, err := system.Run(res.DistTag+".redirect", ref, 16); err != nil {
			return nil, nil, fmt.Errorf("figure 11: crossed %s does not run: %w", app.Name, err)
		}
		rows = append(rows, Fig11Row{
			App: app.Name,
			// Two FROM lines (Env and Base images switch to the target
			// ISA's) plus each build command line the *cross-ISA* adapter
			// had to rewrite — the cxxo retune is transparent and costs
			// the user no script edits.
			CoMtainer: 2 + report.PerAdapter[adapter.CrossISA().Name()],
			XBuild:    app.XBuildLines,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	sort.Strings(failed)
	return rows, failed, nil
}

// RenderFigure11 formats the rows and the headline ratio.
func RenderFigure11(rows []Fig11Row, failed []string) string {
	var b strings.Builder
	b.WriteString("Figure 11: build-script line changes to cross ISA (x86-64 image -> AArch64 system)\n")
	fmt.Fprintf(&b, "%-10s %12s %10s\n", "app", "comtainer", "xbuild")
	var sumC, sumX int
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %10d\n", r.App, r.CoMtainer, r.XBuild)
		sumC += r.CoMtainer
		sumX += r.XBuild
	}
	if len(rows) > 0 {
		avgC := float64(sumC) / float64(len(rows))
		avgX := float64(sumX) / float64(len(rows))
		fmt.Fprintf(&b, "%-10s %12.1f %10.1f  (coMtainer needs %.0f%% of the cross-build effort)\n",
			"average", avgC, avgX, avgC/avgX*100)
	}
	fmt.Fprintf(&b, "not cross-ISA capable (unguarded ISA-specific code): %s\n", strings.Join(failed, ", "))
	return b.String()
}

// --- Table 3: image and cache-layer sizes ---

// Table3Row is one application's size accounting, in simulated MiB.
type Table3Row struct {
	App      string
	ImageX86 float64
	ImageArm float64
	Cache    float64
}

// imageMiB measures an image's content size (flattened file bytes) in
// simulated MiB — the figure a `docker images`-style size column reports.
func imageMiB(repo *oci.Repository, tag string) (float64, error) {
	img, err := repo.LoadByTag(tag)
	if err != nil {
		return 0, err
	}
	flat, err := img.Flatten()
	if err != nil {
		return 0, err
	}
	return float64(flat.TotalSize()) / sysprofile.SizeUnit, nil
}

// Table3 builds every Table-3 app's original image on both ISAs plus its
// extended image, and reports the sizes.
func Table3(env *Environment) ([]Table3Row, error) {
	// Table 3 lists these nine apps (minife/minimd are omitted in the
	// paper's table as well).
	names := []string{"comd", "hpccg", "hpcg", "hpl", "lulesh", "miniaero", "miniamr", "lammps", "openmx"}
	var rows []Table3Row
	for _, name := range names {
		app, err := workloads.Find(name)
		if err != nil {
			return nil, err
		}
		row := Table3Row{App: name}
		for _, isa := range []string{toolchain.ISAx86, toolchain.ISAArm} {
			user, err := core.NewUserSide(isa)
			if err != nil {
				return nil, err
			}
			res, err := user.BuildExtended(app)
			if err != nil {
				return nil, fmt.Errorf("table 3: building %s on %s: %w", name, isa, err)
			}
			size, err := imageMiB(user.Repo, res.DistTag)
			if err != nil {
				return nil, err
			}
			if isa == toolchain.ISAx86 {
				row.ImageX86 = size
				extDesc, err := user.Repo.Resolve(res.ExtendedTag)
				if err != nil {
					return nil, err
				}
				cacheBytes, err := cache.ContentSize(user.Repo, extDesc)
				if err != nil {
					return nil, err
				}
				row.Cache = float64(cacheBytes) / sysprofile.SizeUnit
			} else {
				row.ImageArm = size
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 formats the size table.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: size (simulated MiB) of original images and cache layers\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %8s %9s\n", "app", "image(x86-64)", "image(aarch64)", "cache", "cache/img")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14.2f %14.2f %8.2f %8.1f%%\n",
			r.App, r.ImageX86, r.ImageArm, r.Cache, r.Cache/r.ImageX86*100)
	}
	return b.String()
}

// --- Tables 1 and 2 ---

// RenderTable1 formats the testbed table.
func RenderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: HPC systems\n")
	fmt.Fprintf(&b, "%-8s %-38s %-8s %-30s %s\n", "system", "CPU", "RAM", "OS", "nodes")
	for _, r := range sysprofile.Table1() {
		fmt.Fprintf(&b, "%-8s %-38s %-8s %-30s %d\n", r.System, r.CPU, r.RAM, r.OS, r.Nodes)
	}
	return b.String()
}

// RenderTable2 formats the workload table.
func RenderTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: workloads used in evaluation\n")
	fmt.Fprintf(&b, "%-10s %-10s %10s\n", "app", "workload", "LoC")
	for _, r := range workloads.Table2() {
		fmt.Fprintf(&b, "%-10s %-10s %10d\n", r.App, r.Workload, r.LoC)
	}
	return b.String()
}
