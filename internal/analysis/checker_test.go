package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseTestPkg builds the minimal Package (Fset+Files) the suppression
// scanner needs.
func parseTestPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
}

func TestScanAllowsFlagsMissingReason(t *testing.T) {
	pkg := parseTestPkg(t, `package p

func a() {
	//comtainer:allow lockio
	_ = 1
}

func b() {
	//comtainer:allow lockio -- rename must stay serialized
	_ = 2
}

func c() {
	//comtainer:allow lockio,errpropagate --
	_ = 3
}
`)
	sites, diags := scanAllows(pkg)
	if len(sites) != 3 {
		t.Fatalf("want 3 allow sites, got %d", len(sites))
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 missing-reason diagnostics (bare and empty-reason), got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != AllowAnalyzerName {
			t.Errorf("missing-reason diagnostic attributed to %q, want %q", d.Analyzer, AllowAnalyzerName)
		}
		if !strings.Contains(d.Message, "has no reason") {
			t.Errorf("unexpected message: %s", d.Message)
		}
	}
	if diags[0].Pos.Line != 4 {
		t.Errorf("first bare allow reported at line %d, want 4", diags[0].Pos.Line)
	}
}

func TestAllowDiagnosticIsNotSuppressible(t *testing.T) {
	// A bare allow cannot be excused by another allow naming "allow".
	pkg := parseTestPkg(t, `package p

func a() {
	//comtainer:allow all -- blanket excuse attempt
	//comtainer:allow lockio
	_ = 1
}
`)
	diags, err := CheckPackages([]*Package{mustTypeCheck(t, pkg)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, d := range diags {
		if d.Analyzer == AllowAnalyzerName {
			found = true
			if d.Suppressed {
				t.Error("missing-reason diagnostic was suppressed by a blanket allow")
			}
		}
	}
	if !found {
		t.Fatal("bare allow produced no diagnostic")
	}
}

// mustTypeCheck fills in the type information analyze expects; the
// sources above have no imports, so the importer is never consulted.
func mustTypeCheck(t *testing.T, pkg *Package) *Package {
	t.Helper()
	info := NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check(pkg.Path, pkg.Fset, pkg.Files, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text      string
		names     []string
		hasReason bool
	}{
		{"//comtainer:allow lockio -- held rename", []string{"lockio"}, true},
		{"//comtainer:allow lockio", []string{"lockio"}, false},
		{"//comtainer:allow lockio --   ", []string{"lockio"}, false},
		{"//comtainer:allow a,b -- spans both", []string{"a", "b"}, true},
		{"// just a comment", nil, false},
		{"//comtainer:allow", nil, false},
	}
	for _, c := range cases {
		names, hasReason := parseAllow(c.text)
		if len(names) != len(c.names) || hasReason != c.hasReason {
			t.Errorf("parseAllow(%q) = %v,%v; want %v,%v",
				c.text, names, hasReason, c.names, c.hasReason)
		}
	}
}
