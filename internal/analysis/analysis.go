// Package analysis is a small, self-contained static-analysis framework
// modeled on golang.org/x/tools/go/analysis, rebuilt on the standard
// library so coMtainer's vettool carries no external dependencies.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics. The loader resolves packages and their import closure
// through `go list -deps -export -json`, type-checking target packages
// from source against compiler export data, so analyzers see exactly
// the types the compiler sees. The checker runs a suite of analyzers
// over loaded packages and applies the repository-wide suppression
// comment syntax:
//
//	//comtainer:allow <name>[,<name>...] [-- reason]
//
// placed on the flagged line, on the line immediately above it, or in
// the doc comment of the enclosing function declaration.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //comtainer:allow suppression comments. It must be a valid
	// identifier.
	Name string

	// Doc is a one-paragraph description of the enforced invariant.
	Doc string

	// Run applies the analyzer to one package. Packages are analyzed
	// in dependency order, so facts exported by a package's imports
	// are available through Pass.PackageFact.
	Run func(*Pass) error
}

// Fact is a package-level statement an analyzer exports for downstream
// packages — the stdlib-only analogue of go/analysis facts. Facts live
// in memory for one run; they carry string identities (FuncID), never
// AST or types objects, so a dependent package reads them without
// reaching back into the package that exported them.
type Fact interface{ AFact() }

// Pass carries everything an analyzer may inspect about one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic.
	Report func(Diagnostic)

	// ExportPackageFact publishes fact for the package under
	// analysis. The fact must not be mutated after export.
	ExportPackageFact func(fact Fact)

	// PackageFact returns the fact this analyzer exported for the
	// package with the given import path, or nil when none exists
	// (package not analyzed, or no fact exported). The returned fact
	// is shared: treat it as read-only.
	PackageFact func(path string) Fact
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostic is one analyzer finding, located in resolved file
// coordinates so it can be printed and filtered without the FileSet.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string

	// Suppressed marks a diagnostic covered by a //comtainer:allow
	// comment. The checker keeps suppressed findings (flagged) so the
	// -sarif report can expose them; plain output drops them.
	Suppressed bool
}

// String formats the diagnostic the way vet does:
// path:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Callee resolves the static callee of call: a package-level function,
// a method (concrete or interface), or nil for calls through function
// values and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncID returns the stable package-qualified identifier of fn:
// "path.Name" for a package function, "path.(Type).Name" for a method
// (pointer receivers collapse onto the named type, so (*T).M and
// (T).M share an identity) — the key facts record call edges by. The
// empty string identifies nothing.
func FuncID(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	rpath, rname := NamedTypePath(sig.Recv().Type())
	if rname == "" {
		return pkg + "." + fn.Name()
	}
	if rpath == "" {
		rpath = pkg
	}
	return rpath + ".(" + rname + ")." + fn.Name()
}

// IsPkgFunc reports whether call is a static call to one of the named
// functions (or methods) declared in the package with path pkgPath.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// NamedTypePath returns the package path and type name of t's core
// named type, unwrapping pointers; both are "" for unnamed types.
func NamedTypePath(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// FuncScopes walks file and calls fn for every function body — each
// FuncDecl and each FuncLit — passing the body and the enclosing
// *ast.FuncDecl when one exists (nil for file-level var initializers).
// Bodies of nested function literals are visited separately and are
// NOT re-walked as part of their parent, letting per-function
// analyzers treat each lexical function as its own scope.
func FuncScopes(file *ast.File, fn func(body *ast.BlockStmt, decl *ast.FuncDecl)) {
	var visit func(n ast.Node, decl *ast.FuncDecl)
	visit = func(n ast.Node, decl *ast.FuncDecl) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncDecl:
				if v.Body != nil {
					fn(v.Body, v)
					visit(v.Body, v)
				}
				return false
			case *ast.FuncLit:
				fn(v.Body, decl)
				visit(v.Body, decl)
				return false
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Body, d)
				visit(d.Body, d)
			}
		default:
			visit(d, nil)
		}
	}
}

// InspectShallow walks n but does not descend into nested function
// literals, so statement-order reasoning stays within one function.
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m != n {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
		}
		return fn(m)
	})
}

// SortedKeys returns m's keys in ascending order, nil when m is empty.
func SortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PosBefore orders resolved positions by file, line, then column —
// the order diagnostics are sorted in.
func PosBefore(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
