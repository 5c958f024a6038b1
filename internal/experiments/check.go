package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"comtainer/internal/core/adapter"
	"comtainer/internal/fsim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// CheckResult is one verified claim: a paper-reported quantity, this
// run's measured value, and whether it lands inside the acceptance band.
type CheckResult struct {
	Experiment string
	Claim      string
	Paper      string
	Measured   string
	OK         bool
}

// Check regenerates every experiment and verifies the paper's claims
// against the measured output — the artifact-evaluation pass in one
// call. Every number the repository reproduces is one row here: the
// figures' and tables' headline quantities, their shape (orderings,
// which workload wins or loses, size proportions), and the ablations
// behind the paper's two arguments — LTO belongs on the system side
// (§4.4), and the single-node gain of Fig. 3 fades at Fig. 9's 16 nodes.
// It returns one result per claim; any !OK result means the
// reproduction drifted.
func Check(env *Environment) ([]CheckResult, error) {
	var out []CheckResult
	// add checks a measured number against its band [lo, hi].
	add := func(exp, claim, paper string, measured float64, lo, hi float64, format string) {
		out = append(out, CheckResult{
			Experiment: exp,
			Claim:      claim,
			Paper:      paper,
			Measured:   fmt.Sprintf(format, measured),
			OK:         measured >= lo && measured <= hi,
		})
	}
	// holds records a claim that is not one number: an order, a name, a set.
	holds := func(exp, claim, paper, measured string, ok bool) {
		out = append(out, CheckResult{Experiment: exp, Claim: claim, Paper: paper, Measured: measured, OK: ok})
	}
	inf := math.Inf(1)

	// Figure 3.
	f3, err := Figure3(env)
	if err != nil {
		return nil, err
	}
	add("figure 3", "libo+cxxo time cut, x86-64", "~50%", (1-f3[0].Cxxo/f3[0].Cost)*100, 42, 58, "%.1f%%")
	add("figure 3", "libo+cxxo time cut, aarch64", "~72%", (1-f3[1].Cxxo/f3[1].Cost)*100, 64, 80, "%.1f%%")
	add("figure 3", "extra LTO gain, x86-64", "17.5%", (f3[0].Cxxo/f3[0].LTO-1)*100, 12, 24, "%.1f%%")
	add("figure 3", "extra PGO gain, x86-64", "9.6%", (f3[0].LTO/f3[0].PGO-1)*100, 6, 14, "%.1f%%")
	for _, r := range f3 {
		holds("figure 3", "cost > libo > cxxo > lto > pgo, "+r.System, "yes",
			fmt.Sprintf("%.2f > %.2f > %.2f > %.2f > %.2f s", r.Cost, r.Libo, r.Cxxo, r.LTO, r.PGO),
			r.Cost > r.Libo && r.Libo > r.Cxxo && r.Cxxo > r.LTO && r.LTO > r.PGO)
	}

	// Figures 9/10.
	type sysBand struct {
		name               string
		improvLo, improvHi float64
		improvPaper        string
		nativeLo, nativeHi float64
		nativePaper        string
		ltoLo, ltoHi       float64
		ltoPaper           string
		best, worst        string
		worstHi            float64
		worstPaper         string
	}
	bands := []sysBand{
		{"x86-64", 75, 125, "96.3%", 19, 24, "21.35 s", 4, 13, "+8%", "openmx.pt13", "lammps.chain", -5, "-12.1%"},
		{"aarch64", 50, 90, "66.5%", 60, 75, "67.0 s", 2, 10, "+5.6%", "lammps.lj", "hpcg", -8, "-14.9%"},
	}
	fig9 := map[string][]Fig9Row{}
	for _, band := range bands {
		rows, err := Figure9(env, band.name)
		if err != nil {
			return nil, err
		}
		fig9[band.name] = rows
		a := Averages(rows)
		add("figure 9", "workloads, "+band.name, "18", float64(len(rows)), 18, 18, "%.0f")
		add("figure 9", "avg improvement, "+band.name, band.improvPaper, a.AvgImprovement*100,
			band.improvLo, band.improvHi, "%.1f%%")
		add("figure 9", "native avg time, "+band.name, band.nativePaper, a.Native,
			band.nativeLo, band.nativeHi, "%.2f s")
		add("figure 9", "adapted within 8% of native, "+band.name, "comparable",
			(a.Adapted/a.Native-1)*100, 0, 8, "+%.1f%%")

		avg, best, worst := ltoGains(Figure10(rows))
		add("figure 10", "avg LTO+PGO gain, "+band.name, band.ltoPaper, avg*100, band.ltoLo, band.ltoHi, "%.1f%%")
		holds("figure 10", "best workload, "+band.name, band.best, best.ID, best.ID == band.best)
		holds("figure 10", "worst workload, "+band.name, band.worst, worst.ID, worst.ID == band.worst)
		add("figure 10", "worst workload's gain, "+band.name, band.worstPaper, worst.ltoGain()*100,
			-inf, band.worstHi, "%+.1f%%")
	}
	var slower []string
	for _, r := range fig9["x86-64"] {
		if r.Adapted > r.Original {
			slower = append(slower, r.ID)
		}
	}
	holds("figure 9", "lone slowdown under adaptation, x86-64", "hpccg",
		strings.Join(slower, ", "), len(slower) == 1 && slower[0] == "hpccg")
	improvement := func(sys, id string) float64 {
		for _, r := range fig9[sys] {
			if r.ID == id {
				return (r.Original/r.Native - 1) * 100
			}
		}
		return math.NaN() // outside every band
	}
	add("figure 9", "lammps.eam improvement, x86-64", "+253%", improvement("x86-64", "lammps.eam"), 200, inf, "+%.0f%%")
	add("figure 9", "lulesh improvement, aarch64", "+231%", improvement("aarch64", "lulesh"), 180, 300, "+%.0f%%")

	// Table 3.
	t3, err := Table3(env)
	if err != nil {
		return nil, err
	}
	var maxFrac float64
	minCache := inf
	allX86Bigger := true
	byApp := map[string]Table3Row{}
	for _, r := range t3 {
		byApp[r.App] = r
		maxFrac = max(maxFrac, r.Cache/r.ImageX86)
		minCache = min(minCache, r.Cache)
		if r.ImageX86 <= r.ImageArm {
			allX86Bigger = false
		}
	}
	add("table 3", "apps", "9", float64(len(t3)), 9, 9, "%.0f")
	add("table 3", "max cache share of x86 image", "7.1%", maxFrac*100, 0, 12, "%.1f%%")
	holds("table 3", "smallest cache layer", "non-empty", fmt.Sprintf("%.2f", minCache), minCache > 0)
	holds("table 3", "x86 images larger than aarch64", "yes", fmt.Sprint(allX86Bigger), allX86Bigger)
	add("table 3", "lammps cache", "14.42", byApp["lammps"].Cache, 10, inf, "%.2f")
	add("table 3", "openmx cache", "23.99", byApp["openmx"].Cache, 18, inf, "%.2f")
	add("table 3", "comd cache", "small", byApp["comd"].Cache, 0, 2, "%.2f")
	add("table 3", "comd x86 image", "170.36", byApp["comd"].ImageX86, 150, 190, "%.2f")
	add("table 3", "lammps minus comd x86 image", "32.94", byApp["lammps"].ImageX86-byApp["comd"].ImageX86, 20, inf, "%.2f")
	add("table 3", "openmx minus lammps x86 image", "237.70", byApp["openmx"].ImageX86-byApp["lammps"].ImageX86, 100, inf, "%.2f")

	// Figure 11.
	f11, failed, err := Figure11(env)
	if err != nil {
		return nil, err
	}
	var sumC, sumX, cheaper int
	for _, r := range f11 {
		sumC += r.CoMtainer
		sumX += r.XBuild
		if r.CoMtainer > 0 && r.CoMtainer < r.XBuild {
			cheaper++
		}
	}
	add("figure 11", "cross-ISA capable apps", "many", float64(len(f11)), 7, 7, "%.0f")
	holds("figure 11", "capable apps cheaper than cross-build", "all",
		fmt.Sprintf("%d of %d", cheaper, len(f11)), len(f11) > 0 && cheaper == len(f11))
	add("figure 11", "effort ratio vs cross-build", "~10%", float64(sumC)/float64(sumX)*100, 5, 20, "%.1f%%")
	holds("figure 11", "ISA-bound apps fail", "hpl, miniaero, lammps, openmx",
		strings.Join(failed, ", "), slices.Equal(failed, []string{"hpl", "lammps", "miniaero", "openmx"}))

	// Ablations: what the figures do not show but the paper argues.
	lulesh, err := RefByID("lulesh")
	if err != nil {
		return nil, err
	}
	p, err := env.Pipeline("x86-64", "lulesh")
	if err != nil {
		return nil, err
	}
	tcOnly, err := p.stages(lulesh, 1, []adapter.Adapter{adapter.Toolchain()})
	if err != nil {
		return nil, fmt.Errorf("toolchain-only ablation: %w", err)
	}
	holds("ablation", "libo+cxxo < libo < cxxo alone < cost, lulesh", "each helps; they compose",
		fmt.Sprintf("%.2f < %.2f < %.2f < %.2f s", f3[0].Cxxo, f3[0].Libo, tcOnly[0], f3[0].Cost),
		f3[0].Cxxo < f3[0].Libo && f3[0].Libo < tcOnly[0] && tcOnly[0] < f3[0].Cost)

	openmx, err := RefByID("openmx.pt13")
	if err != nil {
		return nil, err
	}
	po, err := env.Pipeline("x86-64", "openmx")
	if err != nil {
		return nil, err
	}
	var chains [][]adapter.Adapter
	for _, level := range []string{"x86-64", "x86-64-v3", "icelake-server"} {
		chains = append(chains, []adapter.Adapter{adapter.Libo(), adapter.March(level)})
	}
	march, err := po.stages(openmx, 16, chains...)
	if err != nil {
		return nil, fmt.Errorf("-march ablation: %w", err)
	}
	add("ablation", "-march x86-64-v3 vs x86-64, openmx.pt13", "generic levels tie",
		(march[1]/march[0]-1)*100, -0.5, 0.5, "%+.1f%%")
	add("ablation", "-march icelake-server gain, openmx.pt13", "only the node's target gains",
		(march[0]/march[2]-1)*100, 5, 15, "+%.1f%%")

	ratios, err := p.speedups(lulesh, 1, 2, 4, 8, 16)
	if err != nil {
		return nil, err
	}
	add("ablation", "original/adapted at 1 node, lulesh x86", "~2x (fig. 3)", ratios[0], 1.72, 2.38, "%.2fx")
	add("ablation", "original/adapted at 16 nodes, lulesh x86", "unobvious (fig. 9)", ratios[4], 1.05, 1.35, "%.2fx")
	holds("ablation", "original/adapted never rises, 1 to 16 nodes", "gain fades with scale",
		fmt.Sprintf("%.2f", ratios), slices.IsSortedFunc(ratios, func(a, b float64) int { return cmp.Compare(b, a) }))

	plain, lto, err := ltoCompileUnits()
	if err != nil {
		return nil, err
	}
	add("ablation", "LTO compile cost vs -O2, openmx", "intolerable for users (§4.4)", lto/plain, 2.5, 4.5, "%.2fx")
	return out, nil
}

// stages runs ref on nodes after a rebuild with each adapter chain in
// turn, holding p.mu for all of them.
func (p *pipeline) stages(ref workloads.Ref, nodes int, chains ...[]adapter.Adapter) ([]float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for _, chain := range chains {
		t, err := p.runStage(chain, false, ref, nodes)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// speedups returns, at each node count, ref's run time from the
// pipeline's original image over its adapted one.
func (p *pipeline) speedups(ref workloads.Ref, nodeCounts ...int) ([]float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for _, nodes := range nodeCounts {
		orig, err := p.runImage(p.origDesc, ref, nodes)
		if err != nil {
			return nil, err
		}
		adapted, err := p.runImage(p.adaptedDesc, ref, nodes)
		if err != nil {
			return nil, err
		}
		out = append(out, orig/adapted)
	}
	return out, nil
}

// ltoCompileUnits compiles and links openmx with the x86-64 system's
// toolchains twice, at -O2 and at -O2 -flto, and returns the compile
// work of each.
func ltoCompileUnits() (plain, lto float64, err error) {
	sys := sysprofile.X86Cluster()
	app, err := workloads.Find("openmx")
	if err != nil {
		return 0, 0, err
	}
	units := func(flags ...string) (float64, error) {
		fs := fsim.New()
		for name, content := range app.Sources(sys.ISA) {
			fs.WriteFile("/w/"+name, []byte(content), 0o644)
		}
		runner := toolchain.NewRunner(fs, sys.Toolchains)
		runner.Cwd = "/w"
		var objs []string
		for i := 0; i < app.NumSrcFiles; i++ {
			obj := fmt.Sprintf("%s_%02d.o", app.Name, i)
			argv := append(append([]string{"gcc"}, flags...), "-c", fmt.Sprintf("%s_%02d.c", app.Name, i), "-o", obj)
			if err := runner.Run(argv); err != nil {
				return 0, err
			}
			objs = append(objs, obj)
		}
		if err := runner.Run(append(append(append([]string{"gcc"}, flags...), objs...), "-o", "app")); err != nil {
			return 0, err
		}
		return runner.Stats.CompileUnits, nil
	}
	if plain, err = units("-O2"); err != nil {
		return 0, 0, err
	}
	lto, err = units("-O2", "-flto")
	return plain, lto, err
}

// RenderChecks formats check results, returning the text and whether all
// claims passed.
func RenderChecks(results []CheckResult) (string, bool) {
	var b strings.Builder
	ok := true
	b.WriteString("Artifact check: paper claims vs this run\n")
	fmt.Fprintf(&b, "%-10s %-42s %-28s %-22s %s\n", "experiment", "claim", "paper", "measured", "status")
	for _, r := range results {
		status := "ok"
		if !r.OK {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "%-10s %-42s %-28s %-22s %s\n", r.Experiment, r.Claim, r.Paper, r.Measured, status)
	}
	return b.String(), ok
}
