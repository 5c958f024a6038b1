// Package analysistest runs analyzers over small source packages on
// disk and checks their diagnostics against `// want "regexp"`
// comments, a minimal analogue of
// golang.org/x/tools/go/analysis/analysistest.
//
// A want comment sits on the line the diagnostic is expected on and may
// carry several quoted regular expressions, one per expected
// diagnostic. Diagnostics suppressed by //comtainer:allow comments are
// filtered before matching, so testdata can exercise the suppression
// syntax itself.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"comtainer/internal/analysis"
)

// want is one expectation parsed from a `// want` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// quoted matches one Go-quoted string or backquoted string inside a
// want comment.
var quoted = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads the package rooted at dir (a path relative to the calling
// test, conventionally testdata/src/<name>), applies a through the
// full checker (facts, suppression), and reports mismatches
// against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	RunSuite(t, analysis.Suite{a}, dir, ".")
}

// RunSuite loads every package matched by patterns under dir and runs
// the whole suite over them with the real checker, so facts flow
// between the loaded packages.
// Diagnostics from all packages are matched against all want comments
// (suppressed diagnostics are dropped first).
func RunSuite(t *testing.T, suite analysis.Suite, dir string, patterns ...string) {
	t.Helper()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded from %s", dir)
	}
	all, err := analysis.CheckPackages(pkgs, suite)
	if err != nil {
		t.Fatalf("checking %s: %v", dir, err)
	}
	var diags []analysis.Diagnostic
	for _, d := range all {
		if !d.Suppressed {
			diags = append(diags, d)
		}
	}

	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// collectWants parses every `// want "re" ...` comment in the package.
func collectWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				qs := quoted.FindAllString(rest, -1)
				if len(qs) == 0 {
					t.Errorf("%s:%d: malformed want comment: %s", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, q := range qs {
					var s string
					if strings.HasPrefix(q, "`") {
						s = strings.Trim(q, "`")
					} else {
						var err error
						s, err = strconv.Unquote(q)
						if err != nil {
							t.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
							continue
						}
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: s})
				}
			}
		}
	}
	return wants
}
