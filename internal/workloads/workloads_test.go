package workloads

import (
	"strings"
	"testing"

	"comtainer/internal/containerfile"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

func TestTable2Completeness(t *testing.T) {
	rows := Table2()
	if len(rows) != 18 {
		t.Fatalf("Table 2 lists 18 workloads, got %d", len(rows))
	}
	wantLoC := map[string]int{
		"hpl": 37556, "hpcg": 5529, "lulesh": 5546, "comd": 4668,
		"hpccg": 1563, "miniaero": 42056, "miniamr": 9957, "minife": 28010,
		"minimd": 4404, "lammps": 2273423, "openmx": 287381,
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if want, ok := wantLoC[r.App]; ok && r.LoC != want {
			t.Errorf("%s LoC = %d, want %d", r.App, r.LoC, want)
		}
		seen[r.App] = true
	}
	for app := range wantLoC {
		if !seen[app] {
			t.Errorf("app %s missing from Table 2", app)
		}
	}
	// lammps has 5 workloads, openmx 4.
	lammps, _ := Find("lammps")
	openmx, _ := Find("openmx")
	if len(lammps.Workloads) != 5 || len(openmx.Workloads) != 4 {
		t.Errorf("lammps/openmx workload counts: %d/%d", len(lammps.Workloads), len(openmx.Workloads))
	}
}

func TestTraitsCoverage(t *testing.T) {
	for _, ref := range AllRefs() {
		for _, sys := range []string{"x86-64", "aarch64"} {
			tr, err := TraitsFor(ref.ID(), sys)
			if err != nil {
				t.Errorf("missing traits: %v", err)
				continue
			}
			if tr.NativeSec <= 0 || tr.OrigOverNative <= 0 {
				t.Errorf("%s/%s: degenerate traits %+v", ref.ID(), sys, tr)
			}
			if tr.CommFrac < 0 || tr.CommFrac > 0.95 {
				t.Errorf("%s/%s: CommFrac out of range: %f", ref.ID(), sys, tr.CommFrac)
			}
		}
	}
	if _, err := TraitsFor("nonexistent", "x86-64"); err == nil {
		t.Error("missing workload accepted")
	}
}

func TestCalibrationTargets(t *testing.T) {
	// Average original-over-native improvement tracks the paper: 96.3%
	// on x86-64, 66.5% on AArch64 (within a loose band).
	for _, c := range []struct {
		sys     string
		wantMin float64
		wantMax float64
	}{
		{"x86-64", 0.85, 1.15},
		{"aarch64", 0.55, 0.85},
	} {
		sum := 0.0
		for _, ref := range AllRefs() {
			tr, err := TraitsFor(ref.ID(), c.sys)
			if err != nil {
				t.Fatal(err)
			}
			sum += tr.OrigOverNative - 1
		}
		avg := sum / float64(len(AllRefs()))
		if avg < c.wantMin || avg > c.wantMax {
			t.Errorf("%s: avg improvement = %.3f, want in [%.2f, %.2f]", c.sys, avg, c.wantMin, c.wantMax)
		}
	}
	// Native-time averages track Fig 9 (21.35s x86, 67.0s aarch64).
	for _, c := range []struct {
		sys    string
		lo, hi float64
	}{
		{"x86-64", 19, 24}, {"aarch64", 60, 75},
	} {
		sum := 0.0
		for _, ref := range AllRefs() {
			tr, _ := TraitsFor(ref.ID(), c.sys)
			sum += tr.NativeSec
		}
		avg := sum / float64(len(AllRefs()))
		if avg < c.lo || avg > c.hi {
			t.Errorf("%s: avg native time = %.2f, want in [%v, %v]", c.sys, avg, c.lo, c.hi)
		}
	}
	// Notable calibration anchors from the paper.
	eam, _ := TraitsFor("lammps.eam", "x86-64")
	if eam.OrigOverNative < 3.3 {
		t.Error("lammps.eam should carry the +253% x86 anchor")
	}
	hpccg, _ := TraitsFor("hpccg", "x86-64")
	if hpccg.OrigOverNative >= 1 {
		t.Error("hpccg must be the lone native regression")
	}
	luleshArm, _ := TraitsFor("lulesh", "aarch64")
	if luleshArm.OrigOverNative < 3.0 {
		t.Error("lulesh aarch64 should show the +231% communication anchor")
	}
	pt13, _ := TraitsFor("openmx.pt13", "x86-64")
	if pt13.LTOGain+pt13.PGOGain < 0.28 {
		t.Error("openmx.pt13 should be the best x86 LTO+PGO anchor (+30.4%)")
	}
	chain, _ := TraitsFor("lammps.chain", "x86-64")
	if chain.LTOGain+chain.PGOGain > -0.10 {
		t.Error("lammps.chain should be the worst x86 LTO+PGO anchor (-12.1%)")
	}
	hpcgArm, _ := TraitsFor("hpcg", "aarch64")
	if hpcgArm.LTOGain+hpcgArm.PGOGain > -0.13 {
		t.Error("hpcg should be the worst aarch64 LTO+PGO anchor (-14.9%)")
	}
	ljArm, _ := TraitsFor("lammps.lj", "aarch64")
	if ljArm.LTOGain+ljArm.PGOGain < 0.16 {
		t.Error("lammps.lj should be the best aarch64 LTO+PGO anchor (+17.7%)")
	}
}

func TestLTOPGOAverages(t *testing.T) {
	// Fig 10: optimized beats adapted by ~8% (x86) / ~5.6% (aarch64).
	for _, c := range []struct {
		sys    string
		lo, hi float64
	}{
		{"x86-64", 0.06, 0.11}, {"aarch64", 0.035, 0.08},
	} {
		sum := 0.0
		for _, ref := range AllRefs() {
			tr, _ := TraitsFor(ref.ID(), c.sys)
			sum += tr.LTOGain + tr.PGOGain
		}
		avg := sum / float64(len(AllRefs()))
		if avg < c.lo || avg > c.hi {
			t.Errorf("%s: avg LTO+PGO gain = %.4f, want in [%v, %v]", c.sys, avg, c.lo, c.hi)
		}
	}
}

func TestSourcesSizeAndDeterminism(t *testing.T) {
	for _, a := range Apps() {
		src := a.Sources(toolchain.ISAx86)
		if len(src) != a.NumSrcFiles+1 { // +1 header
			t.Errorf("%s: %d source files, want %d", a.Name, len(src), a.NumSrcFiles+1)
		}
		total := 0
		for _, content := range src {
			total += len(content)
		}
		target := a.SrcMiB * sysprofile.SizeUnit
		// Small trees carry fixed per-file overhead (headers, main).
		slack := target*0.3 + 350
		if float64(total) < target*0.9 || float64(total) > target+slack {
			t.Errorf("%s: source bytes = %d, target ~%.0f", a.Name, total, target)
		}
		// Deterministic.
		again := a.Sources(toolchain.ISAx86)
		for p, c := range src {
			if again[p] != c {
				t.Errorf("%s: source %s not deterministic", a.Name, p)
			}
		}
	}
}

func TestSourcePortabilityMarkers(t *testing.T) {
	lulesh, _ := Find("lulesh")
	src := lulesh.Sources(toolchain.ISAx86)
	joined := ""
	for _, c := range src {
		joined += c
	}
	if !strings.Contains(joined, "isa:x86-64") || !strings.Contains(joined, "COMT_PORTABLE") {
		t.Error("lulesh sources must carry guarded ISA-specific code")
	}
	hpl, _ := Find("hpl")
	joined = ""
	for _, c := range hpl.Sources(toolchain.ISAx86) {
		joined += c
	}
	if !strings.Contains(joined, "isa:x86-64") || strings.Contains(joined, "COMT_PORTABLE") {
		t.Error("hpl sources must carry mandatory (unguarded) ISA-specific code")
	}
	comd, _ := Find("comd")
	joined = ""
	for _, c := range comd.Sources(toolchain.ISAx86) {
		joined += c
	}
	if strings.Contains(joined, "isa:") {
		t.Error("comd sources should be fully portable")
	}
}

func TestContainerfileVariants(t *testing.T) {
	lulesh, _ := Find("lulesh")
	conv := lulesh.Containerfile(toolchain.ISAx86, false)
	comt := lulesh.Containerfile(toolchain.ISAx86, true)
	if !strings.Contains(conv, "FROM "+sysprofile.TagUbuntu) {
		t.Error("conventional script should use the stock base")
	}
	if !strings.Contains(comt, "FROM "+sysprofile.TagEnv) || !strings.Contains(comt, "FROM "+sysprofile.TagBase) {
		t.Error("coMtainer script should use Env/Base images (Figure 6)")
	}
	// Both must parse.
	for _, text := range []string{conv, comt} {
		if _, err := containerfile.Parse(text); err != nil {
			t.Errorf("generated Containerfile does not parse: %v\n%s", err, text)
		}
	}
	// The ARM variant of a guarded app opts into the portable path.
	arm := lulesh.Containerfile(toolchain.ISAArm, true)
	if !strings.Contains(arm, "-DCOMT_PORTABLE") {
		t.Error("ARM lulesh script missing the portable guard define")
	}
	// ISA-specific flag sets appear only on their ISA. lammps builds via
	// make, so its flags live in the generated Makefile.
	lammps, _ := Find("lammps")
	if !lammps.UseMake {
		t.Fatal("lammps should build through make")
	}
	if !strings.Contains(lammps.Containerfile(toolchain.ISAx86, true), "RUN make") {
		t.Error("lammps script should RUN make")
	}
	if !strings.Contains(lammps.Makefile(toolchain.ISAx86), "-mavx2") {
		t.Error("lammps x86 Makefile should use -mavx2")
	}
	if strings.Contains(lammps.Makefile(toolchain.ISAArm), "-mavx2") {
		t.Error("lammps arm Makefile must not use -mavx2")
	}
	// The Makefile itself parses and drives the pattern rule.
	hpcgScript := lammps.Makefile(toolchain.ISAx86)
	if !strings.Contains(hpcgScript, "%.o: %.cc") {
		t.Errorf("lammps Makefile missing pattern rule:\n%s", hpcgScript)
	}
}

// TestCrossISAApps pins Figure 11's population: the apps that can cross
// ISAs with minor script changes.
func TestCrossISAApps(t *testing.T) {
	var capable []*App
	for _, a := range Apps() {
		if a.Portability != Mandatory {
			capable = append(capable, a)
		}
	}
	names := map[string]bool{}
	for _, a := range capable {
		names[a.Name] = true
		if a.XBuildLines <= 0 {
			t.Errorf("%s: capable app missing xbuild effort", a.Name)
		}
	}
	for _, want := range []string{"hpcg", "lulesh", "comd", "hpccg", "miniamr", "minife", "minimd"} {
		if !names[want] {
			t.Errorf("%s should be cross-ISA capable", want)
		}
	}
	for _, not := range []string{"hpl", "miniaero", "lammps", "openmx"} {
		if names[not] {
			t.Errorf("%s should not be cross-ISA capable", not)
		}
	}
	// Paper: cross-building costs ~47 changed lines on average.
	sum := 0
	for _, a := range capable {
		sum += a.XBuildLines
	}
	avg := float64(sum) / float64(len(capable))
	if avg < 35 || avg > 60 {
		t.Errorf("avg xbuild lines = %.1f, want ~47", avg)
	}
}

func TestDataFiles(t *testing.T) {
	lammps, _ := Find("lammps")
	data := lammps.Data()
	if len(data) == 0 {
		t.Fatal("lammps should bundle data")
	}
	total := 0
	for _, b := range data {
		total += len(b)
	}
	if float64(total) < lammps.DataMiB*sysprofile.SizeUnit*0.95 {
		t.Errorf("lammps data bytes = %d", total)
	}
	comd, _ := Find("comd")
	if comd.Data() != nil {
		t.Error("comd should have no bundled data")
	}
}

func TestRefIDs(t *testing.T) {
	refs := AllRefs()
	ids := map[string]bool{}
	for _, r := range refs {
		if ids[r.ID()] {
			t.Errorf("duplicate workload id %s", r.ID())
		}
		ids[r.ID()] = true
	}
	if !ids["lulesh"] || !ids["lammps.lj"] || !ids["openmx.pt13"] {
		t.Errorf("expected ids missing: %v", ids)
	}
}
