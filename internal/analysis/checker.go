package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// CheckPackages runs suite over pkgs and returns every diagnostic,
// suppressed ones included (flagged), sorted by position. Packages are
// analyzed in the order given, which must be dependency-first — the
// order Load returns — so the facts a package exports are visible to
// its dependents. This is the one way the suite runs: comtainer-vet, the
// analysistest harness and the end-to-end test all come through here.
func CheckPackages(pkgs []*Package, suite []*Analyzer) ([]Diagnostic, error) {
	ck := &checker{suite: suite, facts: make(map[string]map[string]Fact)}
	for _, pkg := range pkgs {
		if err := ck.analyze(pkg); err != nil {
			return nil, err
		}
	}
	return ck.finish(), nil
}

// checker accumulates diagnostics, allow sites, and facts across the
// packages of one run.
type checker struct {
	suite []*Analyzer
	diags []Diagnostic
	sites []allowSite
	facts map[string]map[string]Fact // analyzer → package path → fact
}

// analyze indexes pkg's allow sites and runs every analyzer over it.
func (ck *checker) analyze(pkg *Package) error {
	sites, reasonDiags := scanAllows(pkg)
	ck.sites = append(ck.sites, sites...)
	ck.diags = append(ck.diags, reasonDiags...)

	for _, a := range ck.suite {
		byPkg := ck.facts[a.Name]
		if byPkg == nil {
			byPkg = make(map[string]Fact)
			ck.facts[a.Name] = byPkg
		}
		pass := &Pass{
			Analyzer:          a,
			Fset:              pkg.Fset,
			Files:             pkg.Files,
			Pkg:               pkg.Types,
			TypesInfo:         pkg.Info,
			Report:            func(d Diagnostic) { ck.diags = append(ck.diags, d) },
			ExportPackageFact: func(f Fact) { byPkg[pkg.Path] = f },
			PackageFact:       func(path string) Fact { return byPkg[path] },
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("analysis: running %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return nil
}

// finish applies suppression and returns the sorted diagnostics.
func (ck *checker) finish() []Diagnostic {
	ix := buildAllowIndex(ck.sites)
	out := make([]Diagnostic, len(ck.diags))
	for i, d := range ck.diags {
		// The reason-enforcement diagnostic is not itself
		// suppressible: an allow comment cannot vouch for its own
		// missing justification.
		if d.Analyzer != AllowAnalyzerName {
			d.Suppressed = ix.suppressed(d)
		}
		out[i] = d
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos != b.Pos {
			return PosBefore(a.Pos, b.Pos)
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// AllowAnalyzerName tags the diagnostics the suppression scanner
// itself emits: a //comtainer:allow comment with no "-- reason".
const AllowAnalyzerName = "allow"

// allowSite is one suppression range: Names are allowed on lines
// Line..EndLine (plus the line after EndLine, matching the historical
// "comment above the flagged line" behavior).
type allowSite struct {
	File    string
	Line    int
	EndLine int
	Names   []string
}

// allowIndex answers suppression queries over a set of sites.
type allowIndex struct {
	byFile map[string][]allowSite
}

func buildAllowIndex(sites []allowSite) *allowIndex {
	ix := &allowIndex{byFile: make(map[string][]allowSite)}
	for _, s := range sites {
		ix.byFile[s.File] = append(ix.byFile[s.File], s)
	}
	return ix
}

// suppressed reports whether d is covered by an allow site: the
// diagnostic's line falls inside the site's range extended one line
// past its end (the comment-above-the-line form), and the site names
// the analyzer or "all".
func (ix *allowIndex) suppressed(d Diagnostic) bool {
	for _, s := range ix.byFile[d.Pos.Filename] {
		if d.Pos.Line < s.Line || d.Pos.Line > s.EndLine+1 {
			continue
		}
		for _, n := range s.Names {
			if n == d.Analyzer || n == "all" {
				return true
			}
		}
	}
	return false
}

// scanAllows indexes every //comtainer:allow comment in the package
// and emits a diagnostic for each one lacking a reason. A comment in
// a function's doc block applies to the whole function body.
func scanAllows(pkg *Package) ([]allowSite, []Diagnostic) {
	var sites []allowSite
	var diags []Diagnostic
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				names, hasReason := parseAllow(c.Text)
				if names == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sites = append(sites, allowSite{
					File: pos.Filename, Line: pos.Line, EndLine: pos.Line, Names: names,
				})
				if !hasReason {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: AllowAnalyzerName,
						Message: fmt.Sprintf("//comtainer:allow %s has no reason; append \" -- <why this exception is safe>\"",
							strings.Join(names, ",")),
					})
				}
			}
		}
		// Doc-comment allows cover the whole declared function.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			var names []string
			for _, c := range fd.Doc.List {
				ns, _ := parseAllow(c.Text)
				names = append(names, ns...)
			}
			if len(names) == 0 {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			sites = append(sites, allowSite{
				File: start.Filename, Line: start.Line, EndLine: end.Line, Names: names,
			})
		}
	}
	return sites, diags
}

// parseAllow extracts analyzer names from one comment, returning nil
// names when the comment is not an allow directive, and whether a
// non-empty reason follows the "--" separator. Accepted forms:
//
//	//comtainer:allow closeleak -- the caller closes it
//	//comtainer:allow closeleak,errpropagate -- reason spans both
func parseAllow(text string) (names []string, hasReason bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, "comtainer:allow")
	if !ok {
		return nil, false
	}
	rest = strings.TrimSuffix(rest, "*/")
	if i := strings.Index(rest, "--"); i >= 0 {
		hasReason = strings.TrimSpace(rest[i+2:]) != ""
		rest = rest[:i]
	}
	for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if f != "" {
			names = append(names, f)
		}
	}
	if names == nil {
		return nil, false
	}
	return names, hasReason
}
