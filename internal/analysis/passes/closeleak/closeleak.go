// Package closeleak checks that os.File handles and io.Closer-shaped
// values acquired from calls are closed or deliberately handed off on
// every path to the function exit — the error-path variant of "did you
// close that?": the happy path almost always closes, it is the early
// `return err` after a second syscall fails that leaks the first
// handle.
//
// The analysis is path-sensitive over the per-function CFG. Escapes
// end tracking: returning the handle, storing it in a field or
// container, sending it on a channel, capturing it in a closure, or
// passing it to a dynamic callee all transfer ownership. Branches on
// the acquire's error variable are pruned on the side where the
// resource is nil. In-module helpers that close a parameter on every
// path are classified and exported as facts, so forwarding a handle to
// one counts as a release at the call site.
package closeleak

import (
	"fmt"
	"go/ast"
	"go/types"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/passes/lifecycle"
)

// Analyzer reports leaked closers.
var Analyzer = &analysis.Analyzer{
	Name: "closeleak",
	Doc: "a *os.File or io.Closer acquired from a call must be closed or escape " +
		"(returned, stored, handed off) on every path to the function exit",
	Run: func(pass *analysis.Pass) error {
		lifecycle.Run(pass, spec)
		return nil
	},
}

var spec = &lifecycle.Spec{
	IsResource: isCloser,
	IsRelease: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		return lifecycle.MethodOn(info, call, obj, "Close")
	},
	Aliases:       isCloser,
	ConsumesKnown: consumesKnown,
	LeakMessage: func(obj types.Object) string {
		return fmt.Sprintf("%s (%s) is not closed on every path to return", obj.Name(), obj.Type())
	},
}

// isCloser reports types whose method set includes Close() error:
// *os.File, io.ReadCloser, net.Listener, compression writers, and the
// repository's own store handles. *http.Response is not one (its Body
// is; package bodyclose owns that), and neither are plain buffers.
func isCloser(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		m, ok := ms.At(i).Obj().(*types.Func)
		if !ok || m.Name() != "Close" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return false
		}
		named, ok := sig.Results().At(0).Type().(*types.Named)
		return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	return false
}

// consumesKnown records stdlib callees that take ownership of the
// closer they are handed: the HTTP serve loop closes its listener when
// the server shuts down.
func consumesKnown(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return false
	}
	switch fn.Name() {
	case "Serve", "ServeTLS":
		return true
	}
	return false
}
