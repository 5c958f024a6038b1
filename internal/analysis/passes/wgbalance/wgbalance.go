// Package wgbalance checks sync.WaitGroup accounting along CFG paths.
// Every wg.Add must be answered: on each path from the Add to the
// function exit there must be a Done provider — a direct or deferred
// wg.Done, a function literal capturing the group (the goroutine that
// will call Done), or a call handing the group to a function known to
// call Done on every path (interprocedural facts). An Add followed by
// an early `return err` with no provider on that path strands any
// later Wait forever.
//
// That is a lifecycle.Spec like bodyclose's: the obligation is opened
// by the Add statement rather than by a call result, on a group that
// may be a field and is usually passed by address, and from there the
// shared engine applies — released by Done, escaped by capture,
// return, store, send or a dynamic call. A helper that only spawns the
// goroutine (its literal calls Done, the helper does not) is not
// classified as a releaser: hand the helper's callers a `go` statement
// of their own, or the function to run.
//
// It also flags the classic startup race at the AST level: calling
// wg.Add inside the spawned goroutine itself, while the spawning scope
// Waits on the same group — Wait may run before the goroutine is
// scheduled and see a zero counter.
package wgbalance

import (
	"fmt"
	"go/ast"
	"go/types"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/cfg"
	"comtainer/internal/analysis/passes/lifecycle"
)

// Analyzer reports unbalanced WaitGroup arithmetic.
var Analyzer = &analysis.Analyzer{
	Name: "wgbalance",
	Doc: "every sync.WaitGroup.Add must reach a Done provider on all paths to return, " +
		"and Add must not run inside the goroutine a Wait is waiting on",
	Run: run,
}

var spec = &lifecycle.Spec{
	IsResource: isWaitGroup,
	Opens: func(info *types.Info, call *ast.CallExpr) types.Object {
		return wgMethodObj(info, call, "Add")
	},
	IsRelease: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		return wgMethodObj(info, call, "Done") == obj
	},
	LeakMessage: func(obj types.Object) string {
		return fmt.Sprintf("%s.Add is not balanced by a Done provider on every path to return", obj.Name())
	},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == "sync" {
		return nil
	}
	lifecycle.Run(pass, spec)
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(body *ast.BlockStmt, _ *ast.FuncDecl) {
			checkAddInGoroutine(pass, body)
		})
	}
	return nil
}

// isWaitGroup reports sync.WaitGroup / *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	path, name := analysis.NamedTypePath(t)
	return path == "sync" && name == "WaitGroup"
}

// wgMethodObj returns the object the WaitGroup method named method is
// invoked on (`wg.Add(1)` → wg's object, `s.wg.Done()` → the field
// object), or nil if call is not that method or its receiver is a
// shape cfg.Operand does not resolve (map/slice elements), which skips
// the call site conservatively.
func wgMethodObj(info *types.Info, call *ast.CallExpr, method string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	return cfg.Operand(info, sel.X)
}

// checkAddInGoroutine flags Add calls made inside a go-statement's
// function literal when the launching scope Waits on the same group:
// the scheduler may run Wait first and release it at zero.
func checkAddInGoroutine(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	waited := map[types.Object]bool{}
	analysis.InspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := wgMethodObj(info, call, "Wait"); obj != nil {
				waited[obj] = true
			}
		}
		return true
	})
	if len(waited) == 0 {
		return
	}
	analysis.InspectShallow(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj := wgMethodObj(info, call, "Add"); obj != nil && waited[obj] {
				pass.Reportf(call.Pos(),
					"%s.Add inside the goroutine races the Wait; call Add before the go statement", obj.Name())
			}
			return true
		})
		return true
	})
}
