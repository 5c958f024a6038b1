// Package wgbalance checks sync.WaitGroup accounting along CFG paths.
// Every wg.Add must be answered: on each path from the Add to the
// function exit there must be a Done provider — a direct or deferred
// wg.Done, a function literal capturing the group (the goroutine that
// will call Done), or a call handing the group to a function known to
// call Done on every path (interprocedural facts). An Add followed by
// an early `return err` with no provider on that path strands any
// later Wait forever.
//
// It also flags the classic startup race at the AST level: calling
// wg.Add inside the spawned goroutine itself, while the spawning scope
// Waits on the same group — Wait may run before the goroutine is
// scheduled and see a zero counter.
package wgbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/cfg"
)

// Analyzer reports unbalanced WaitGroup arithmetic.
var Analyzer = &analysis.Analyzer{
	Name: "wgbalance",
	Doc: "every sync.WaitGroup.Add must reach a Done provider on all paths to return, " +
		"and Add must not run inside the goroutine a Wait is waiting on",
	Run: run,
}

// Fact records which declared functions call Done on a WaitGroup
// parameter on every path, keyed by FuncID; values are flat parameter
// indices.
type Fact struct {
	Finishers map[string][]int
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == "sync" {
		return nil
	}
	finishers := classifyFinishers(pass)
	if len(finishers) > 0 {
		pass.ExportPackageFact(&Fact{Finishers: finishers})
	}
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(body *ast.BlockStmt, decl *ast.FuncDecl) {
			name := "func literal"
			if decl != nil {
				name = decl.Name.Name
			}
			checkScope(pass, finishers, name, body)
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
// object), or nil if call is not that method.
func wgMethodObj(info *types.Info, call *ast.CallExpr, method string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	return recvObj(info, sel.X)
}

// recvObj resolves the receiver expression to the variable or field
// object holding the WaitGroup. Unresolvable shapes (map/slice
// elements) return nil and the call site is skipped conservatively.
func recvObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return recvObj(info, e.X)
		}
	case *ast.StarExpr:
		return recvObj(info, e.X)
	}
	return nil
}

// mentionsObj reports whether obj is used anywhere inside n — idents
// and selector fields alike.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// argIsGroup reports whether arg is the group or its address.
func argIsGroup(info *types.Info, arg ast.Expr, obj types.Object) bool {
	return recvObj(info, arg) == obj
}

// checkScope verifies every Add in one function scope.
func checkScope(pass *analysis.Pass, finishers map[string][]int, name string, body *ast.BlockStmt) {
	g := cfg.New(name, body)
	for _, blk := range g.Blocks {
		if blk == g.Exit {
			continue
		}
		for i, n := range blk.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			obj := wgMethodObj(pass.TypesInfo, call, "Add")
			if obj == nil {
				continue
			}
			stop := providerStop(pass, finishers, obj, true)
			if cfg.ReachesExit(g, blk, i, stop, nil) {
				pass.Reportf(call.Pos(),
					"%s.Add is not balanced by a Done provider on every path to return", obj.Name())
			}
		}
	}
}

// providerStop builds the settles predicate for ReachesExit: nodes
// that answer (or take over) an Add. With escapes true, handing the
// group to unknown code, storing it, or returning it also stops
// tracking quietly; with escapes false only genuine Done providers
// count (the interprocedural classifier).
func providerStop(pass *analysis.Pass, finishers map[string][]int, obj types.Object, escapes bool) func(ast.Node) bool {
	info := pass.TypesInfo
	var stops func(n ast.Node) bool
	stops = func(n ast.Node) bool {
		hit := false
		ast.Inspect(n, func(m ast.Node) bool {
			if hit {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				// The goroutine body. A literal capturing the group is
				// assumed to Done it — flagging `go func() { defer
				// wg.Done(); ... }()` would be noise; a literal that
				// captures and never calls Done is the rare bug this
				// trade-off accepts.
				if mentionsObj(info, m, obj) {
					hit = true
				}
				return false
			case *ast.CallExpr:
				if wgMethodObj(info, m, "Done") == obj {
					hit = true
					return false
				}
				if wgMethodObj(info, m, "Wait") == obj || wgMethodObj(info, m, "Add") == obj {
					return true // neither provides a Done; keep scanning args
				}
				for i, arg := range m.Args {
					if !argIsGroup(info, arg, obj) {
						continue
					}
					fn := analysis.Callee(info, m)
					if fn == nil {
						if escapes {
							hit = true // dynamic callee: ownership left
						}
						return false
					}
					if finisherAt(pass, finishers, fn, i) || escapes {
						hit = true
					}
					return false
				}
			case *ast.ReturnStmt:
				if escapes && mentionsObj(info, m, obj) {
					hit = true
					return false
				}
			case *ast.SendStmt:
				if escapes && mentionsObj(info, m, obj) {
					hit = true
					return false
				}
			case *ast.AssignStmt:
				if !escapes {
					return true
				}
				for _, r := range m.Rhs {
					if _, isCall := ast.Unparen(r).(*ast.CallExpr); isCall {
						continue
					}
					if mentionsObj(info, r, obj) {
						hit = true // aliased or stored: someone else's ledger now
						return false
					}
				}
			}
			return true
		})
		return hit
	}
	return stops
}

// finisherAt consults the local classification and dependency facts
// for "fn calls Done on parameter i on every path".
func finisherAt(pass *analysis.Pass, finishers map[string][]int, fn *types.Func, i int) bool {
	id := analysis.FuncID(fn)
	if id == "" {
		return false
	}
	var idxs []int
	if fn.Pkg() == pass.Pkg {
		idxs = finishers[id]
	} else if fn.Pkg() != nil {
		if f, ok := pass.PackageFact(fn.Pkg().Path()).(*Fact); ok && f != nil {
			idxs = f.Finishers[id]
		}
	}
	for _, j := range idxs {
		if j == i {
			return true
		}
	}
	return false
}

// classifyFinishers computes, per declared function, the WaitGroup
// parameters that are Done'd on every path to the exit. Fixpoint
// covers helper-forwards-to-helper chains.
func classifyFinishers(pass *analysis.Pass) map[string][]int {
	type candidate struct {
		id     string
		g      *cfg.CFG
		params []paramSite
	}
	var cands []candidate
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			id := analysis.FuncID(fn)
			if id == "" {
				continue
			}
			params := groupParams(pass, fd)
			if len(params) == 0 {
				continue
			}
			cands = append(cands, candidate{id: id, g: cfg.New(fd.Name.Name, fd.Body), params: params})
		}
	}
	finishers := make(map[string][]int)
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			for _, p := range c.params {
				if slices.Contains(finishers[c.id], p.index) {
					continue
				}
				stop := providerStop(pass, finishers, p.obj, false)
				if !cfg.ReachesExit(c.g, c.g.Entry, -1, stop, nil) {
					finishers[c.id] = append(finishers[c.id], p.index)
					changed = true
				}
			}
		}
	}
	return finishers
}

// paramSite is one WaitGroup-typed parameter of a declared function.
type paramSite struct {
	index int
	obj   types.Object
}

// groupParams returns the flat indices (receiver excluded) of
// WaitGroup-typed, named parameters.
func groupParams(pass *analysis.Pass, fd *ast.FuncDecl) []paramSite {
	var out []paramSite
	idx := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, nm := range field.Names {
			obj := pass.TypesInfo.Defs[nm]
			if obj != nil && nm.Name != "_" && isWaitGroup(obj.Type()) {
				out = append(out, paramSite{index: idx, obj: obj})
			}
			idx++
		}
	}
	return out
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
