// Package bodyclose checks that every *http.Response acquired —
// whether from the stdlib client surface or from an in-module helper
// that returns one — has its Body closed on every path to the
// function exit. The analysis is path-sensitive over the per-function
// CFG: an early `return err` taken only when the acquire failed is
// pruned (the response is nil there), a `defer resp.Body.Close()`
// counts from its registration point onward, and responses that
// escape (returned, stored, captured) are the new owner's problem.
//
// Helpers that close a response handed to them — the repository's
// `statusError(resp)`, which drains and closes the body before
// wrapping the status — are classified per package and exported as
// facts, so call sites in dependent packages count them as releases.
package bodyclose

import (
	"fmt"
	"go/ast"
	"go/types"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/passes/lifecycle"
)

// Analyzer reports leaked response bodies.
var Analyzer = &analysis.Analyzer{
	Name: "bodyclose",
	Doc: "every *http.Response acquired (directly or via in-module helpers) " +
		"must have its Body closed on every path to the function exit",
	Run: run,
}

var spec = &lifecycle.Spec{
	IsResource: isResponse,
	IsRelease:  isBodyClose,
	Aliases:    hasCloser,
	LeakMessage: func(obj types.Object) string {
		return fmt.Sprintf("%s.Body is not closed on every path to return", obj.Name())
	},
	DiscardMessage: func(types.Type) string {
		return "*http.Response result is discarded; its Body must be closed"
	},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != "net/http" {
		lifecycle.Run(pass, spec)
	}
	return nil
}

// isResponse reports *net/http.Response.
func isResponse(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	path, name := analysis.NamedTypePath(t)
	return path == "net/http" && name == "Response"
}

// isBodyClose matches `resp.Body.Close()` on the tracked object.
func isBodyClose(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	body, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || body.Sel.Name != "Body" {
		return false
	}
	id, ok := ast.Unparen(body.X).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// hasCloser reports whether t's method set includes Close() error —
// assigning resp.Body (io.ReadCloser) away aliases the closable part.
func hasCloser(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if m, ok := ms.At(i).Obj().(*types.Func); ok && m.Name() == "Close" {
			return true
		}
	}
	return false
}
