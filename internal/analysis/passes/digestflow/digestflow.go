// Package digestflow is the interprocedural companion to digestcmp:
// any digest.Digest value that reaches a comparison or verification
// must trace back to a sanctioned constructor
// (FromBytes/FromString/FromHash/FromReader or Parse). digestcmp
// catches raw assembly at the expression level; digestflow follows the
// value across assignments and call edges, so a helper three packages
// away that launders a string through digest.Digest(s) is still caught
// at the comparison site.
//
// The analysis is an inverted taint: the unsanctioned sources are
// direct digest.Digest(...) conversions (except the "" zero sentinel)
// and calls to functions whose exported fact says some return path
// yields such a conversion. Everything else — constructors, parameters,
// struct fields, unknown callees — is presumed sanctioned, keeping the
// pass quiet on code that merely transports digests.
package digestflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"comtainer/internal/analysis"
)

// digestPkg is the package owning the Digest representation.
const digestPkg = "comtainer/internal/digest"

// Analyzer reports comparisons and verifications of digests that may
// originate from raw conversions.
var Analyzer = &analysis.Analyzer{
	Name: "digestflow",
	Doc: "digest values reaching ==/!= comparisons or Verify/Validate must trace to " +
		"sanctioned constructors (digest.FromBytes/FromString/FromHash/FromReader, digest.Parse) " +
		"across assignments and call edges, never to raw digest.Digest(...) conversions",
	Run: run,
}

// Fact lists the functions in a package with at least one return path
// yielding an unsanctioned digest. Functions absent from the map are
// sanctioned.
type Fact struct {
	Dirty map[string]bool
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == digestPkg {
		return nil // the digest package owns the representation
	}
	exempt := strings.HasPrefix(pass.Pkg.Path(), "comtainer/internal/analysis") &&
		!strings.Contains(pass.Pkg.Path(), "/testdata/")

	dirty := computeDirty(pass)
	if len(dirty) > 0 {
		pass.ExportPackageFact(&Fact{Dirty: dirty})
	}
	if exempt {
		return nil
	}

	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(body *ast.BlockStmt, decl *ast.FuncDecl) {
			tainted := newTaint(pass, dirty).Run(body)
			analysis.InspectShallow(body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.BinaryExpr:
					checkCompare(pass, v, tainted)
				case *ast.CallExpr:
					checkVerify(pass, v, tainted)
				}
				return true
			})
		})
	}
	return nil
}

// checkCompare flags ==/!= between Digest values when either operand
// may be unsanctioned.
func checkCompare(pass *analysis.Pass, b *ast.BinaryExpr, tainted func(ast.Expr) bool) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if !isDigestType(pass.TypesInfo.TypeOf(b.X)) && !isDigestType(pass.TypesInfo.TypeOf(b.Y)) {
		return
	}
	if tainted(b.X) || tainted(b.Y) {
		pass.Reportf(b.Pos(),
			"digest comparison may involve a raw digest.Digest(...) conversion; "+
				"construct digests with digest.FromBytes/FromString/FromHash/FromReader or digest.Parse")
	}
}

// checkVerify flags Verify/Validate calls on an unsanctioned receiver:
// verifying content against a digest nobody vetted verifies nothing.
func checkVerify(pass *analysis.Pass, call *ast.CallExpr, tainted func(ast.Expr) bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != digestPkg {
		return
	}
	switch fn.Name() {
	case "Verify", "Validate", "NewVerifier":
	default:
		return
	}
	if isDigestType(pass.TypesInfo.TypeOf(sel.X)) && tainted(sel.X) {
		pass.Reportf(call.Pos(),
			"%s called on a digest that may come from a raw digest.Digest(...) conversion; "+
				"parse untrusted input with digest.Parse first", fn.Name())
	}
}

// computeDirty finds the package's functions with a return path
// yielding an unsanctioned digest, iterating to a fixpoint so dirt
// flows through same-package call chains (dependency facts are final
// and consulted through the taint source).
func computeDirty(pass *analysis.Pass) map[string]bool {
	type fnDecl struct {
		id string
		fd *ast.FuncDecl
	}
	var decls []fnDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			id := analysis.FuncID(fn)
			if id == "" {
				continue
			}
			returnsDigest := false
			for _, f := range fd.Type.Results.List {
				if isDigestType(pass.TypesInfo.TypeOf(f.Type)) {
					returnsDigest = true
				}
			}
			if returnsDigest {
				decls = append(decls, fnDecl{id, fd})
			}
		}
	}

	dirty := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if dirty[d.id] {
				continue
			}
			tainted := newTaint(pass, dirty).Run(d.fd.Body)
			found := false
			analysis.InspectShallow(d.fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || found {
					return !found
				}
				for _, e := range ret.Results {
					if isDigestType(pass.TypesInfo.TypeOf(e)) && tainted(e) {
						found = true
					}
				}
				return true
			})
			if found {
				dirty[d.id] = true
				changed = true
			}
		}
	}
	return dirty
}

// newTaint builds the unsanctioned-digest taint for one body: sources
// are raw digest.Digest conversions (non-empty argument) and calls to
// dirty functions, locally or via dependency facts.
func newTaint(pass *analysis.Pass, dirty map[string]bool) *analysis.Taint {
	return &analysis.Taint{
		Info: pass.TypesInfo,
		Source: func(e ast.Expr) bool {
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok {
				return false
			}
			if rawConversion(pass, call) {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil {
				return false
			}
			id := analysis.FuncID(fn)
			if id == "" {
				return false
			}
			if dirty[id] {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
				if f, ok := pass.PackageFact(fn.Pkg().Path()).(*Fact); ok && f != nil {
					return f.Dirty[id]
				}
			}
			return false
		},
	}
}

// rawConversion reports whether call is digest.Digest(x) for a raw
// (non-Digest) x other than the constant "" zero sentinel.
func rawConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	if !isDigestType(tv.Type) {
		return false
	}
	arg := ast.Unparen(call.Args[0])
	if isDigestType(pass.TypesInfo.TypeOf(arg)) {
		return false // Digest→Digest, a no-op re-typing
	}
	if atv, ok := pass.TypesInfo.Types[arg]; ok && atv.Value != nil &&
		atv.Value.Kind() == constant.String && constant.StringVal(atv.Value) == "" {
		return false // the zero-digest sentinel
	}
	return true
}

func isDigestType(t types.Type) bool {
	path, name := analysis.NamedTypePath(t)
	return path == digestPkg && name == "Digest"
}
