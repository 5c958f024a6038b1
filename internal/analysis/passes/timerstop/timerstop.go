// Package timerstop checks that time.Timer and time.Ticker values are
// stopped on every path to the function exit. A ticker that outlives
// its loop keeps a goroutine-visible channel and its runtime timer
// alive forever — the classic slow leak in long-running services like
// the registry fleet's heartbeat and long-poll paths.
//
// The analysis is path-sensitive over the per-function CFG: `defer
// t.Stop()` counts from its registration point, escaped timers
// (returned, stored, handed to another function) become the new
// owner's responsibility, and a loop that never exits vacuously
// satisfies the property. Two unstoppable idioms are reported
// outright: time.Tick (its ticker can never be stopped; fine in main,
// a leak in library code) and time.After inside a loop (one orphaned
// timer per iteration).
package timerstop

import (
	"fmt"
	"go/ast"
	"go/types"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/passes/lifecycle"
)

// Analyzer reports unstopped timers and tickers.
var Analyzer = &analysis.Analyzer{
	Name: "timerstop",
	Doc: "time.Timer/time.Ticker must be stopped on every path to the function exit; " +
		"no time.Tick in library code, no time.After in loops",
	Run: run,
}

var spec = &lifecycle.Spec{
	IsResource: isTimer,
	IsRelease: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		return lifecycle.MethodOn(info, call, obj, "Stop")
	},
	LeakMessage: func(obj types.Object) string {
		return fmt.Sprintf("%s (%s) is not stopped on every path to return", obj.Name(), obj.Type())
	},
	DiscardMessage: func(t types.Type) string {
		return fmt.Sprintf("%s result is discarded; it can never be stopped", t)
	},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != "time" {
		lifecycle.Run(pass, spec)
		checkUnstoppable(pass)
	}
	return nil
}

// isTimePkgFunc reports a call to the package-level time function
// named name — NOT the (time.Time).After / (time.Time).Tick-alike
// methods, which share names with the package functions.
func isTimePkgFunc(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isTimer reports *time.Timer / *time.Ticker.
func isTimer(t types.Type) bool {
	path, name := analysis.NamedTypePath(t)
	return path == "time" && (name == "Timer" || name == "Ticker")
}

// checkUnstoppable flags the two idioms with no Stop at all:
// time.Tick outside package main, and time.After under a loop.
func checkUnstoppable(pass *analysis.Pass) {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(body *ast.BlockStmt, decl *ast.FuncDecl) {
			var walk func(n ast.Node, inLoop bool)
			walk = func(n ast.Node, inLoop bool) {
				ast.Inspect(n, func(m ast.Node) bool {
					if m == n {
						return true
					}
					switch m := m.(type) {
					case *ast.FuncLit:
						return false // a separate scope; FuncScopes revisits it
					case *ast.ForStmt:
						if m.Init != nil {
							walk(m.Init, inLoop)
						}
						if m.Cond != nil {
							walk(m.Cond, inLoop)
						}
						if m.Post != nil {
							walk(m.Post, inLoop)
						}
						walk(m.Body, true)
						return false
					case *ast.RangeStmt:
						walk(m.X, inLoop)
						walk(m.Body, true)
						return false
					case *ast.CallExpr:
						if isTimePkgFunc(pass.TypesInfo, m, "Tick") && !isMain {
							pass.Reportf(m.Pos(),
								"time.Tick leaks its Ticker in library code; use time.NewTicker and Stop it")
						}
						if isTimePkgFunc(pass.TypesInfo, m, "After") && inLoop {
							pass.Reportf(m.Pos(),
								"time.After in a loop leaks one Timer per iteration; hoist a time.NewTimer and Stop it")
						}
					}
					return true
				})
			}
			walk(body, false)
		})
	}
}
