package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The environment is shared across tests in this package: pipelines are
// cached, so building it once keeps the suite fast.
var env = NewEnvironment()

// TestRender checks that every table and figure renders its rows. The
// numbers themselves are Check's (TestCheckAllClaimsPass), so the rows
// here are made up.
func TestRender(t *testing.T) {
	set := SchemeSet{Original: 4, Native: 2, Adapted: 2.2, Optimized: 2}
	fig9 := []Fig9Row{{ID: "lulesh", SchemeSet: set}}
	for _, c := range []struct {
		text string
		want []string
	}{
		{RenderTable1(), []string{"8358P", "Kylin"}},
		{RenderTable2(), []string{"lammps", "2273423"}},
		{RenderFigure3([]Figure3Row{{System: "x86-64", Cost: 5, Libo: 4, Cxxo: 3, LTO: 2, PGO: 1}}), []string{"x86-64", "cut time by 40%"}},
		{RenderFigure9("aarch64", fig9), []string{"lulesh", "average", "100.0%"}},
		{RenderFigure10("aarch64", Figure10(fig9)), []string{"LTO+PGO vs adapted", "lulesh +10.0%"}},
		{RenderTable3([]Table3Row{{App: "openmx", ImageX86: 400, ImageArm: 200, Cache: 20}}), []string{"openmx", "5.0%"}},
		{RenderFigure11([]Fig11Row{{App: "comd", CoMtainer: 2, XBuild: 20}}, []string{"hpl"}), []string{"average", "10%", "hpl"}},
	} {
		for _, want := range c.want {
			if !strings.Contains(c.text, want) {
				t.Errorf("render lacks %q:\n%s", want, c.text)
			}
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	files, err := ExportAll(env, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 7 {
		t.Fatalf("wrote %d files: %v", len(files), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Errorf("%s has only %d lines", f, lines)
		}
	}
	// Spot-check one file's shape.
	data, err := os.ReadFile(filepath.Join(dir, "figure9_x8664.csv"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "system,workload,original_s,native_s,adapted_s,optimized_s\n") {
		t.Errorf("header: %q", strings.SplitN(text, "\n", 2)[0])
	}
	if !strings.Contains(text, "lammps.eam") {
		t.Error("figure9 CSV missing workloads")
	}
}

func TestCheckAllClaimsPass(t *testing.T) {
	results, err := Check(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 46 {
		t.Errorf("%d claims checked, want 46", len(results))
	}
	text, ok := RenderChecks(results)
	if !ok {
		t.Errorf("artifact check failed:\n%s", text)
	}
	if !strings.Contains(text, "openmx.pt13") {
		t.Error("render incomplete")
	}
}

func TestSchemeSetGet(t *testing.T) {
	s := SchemeSet{Original: 1, Native: 2, Adapted: 3, Optimized: 4}
	for scheme, want := range map[string]float64{
		SchemeOriginal: 1, SchemeNative: 2, SchemeAdapted: 3, SchemeOptimized: 4,
	} {
		got, err := s.Get(scheme)
		if err != nil || got != want {
			t.Errorf("Get(%s) = %f, %v", scheme, got, err)
		}
	}
	if _, err := s.Get("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}
