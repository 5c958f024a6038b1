// Package lifecycle is the shared engine behind the path-sensitive
// obligation passes (bodyclose, closeleak, timerstop, wgbalance). Each
// pass is a Spec describing its family — what types are tracked, what
// call releases one, which callees take ownership — and Run does the
// rest: it finds the sites that open an obligation (call results bound
// to locals, or the statements Spec.Opens names) in every function
// scope, builds the scope's CFG, and asks cfg.Tracked whether any path
// reaches the function exit with the resource neither released nor
// escaped.
//
// Run is interprocedural through one fact type: it computes, per
// declared function, the parameter indices of resource type that the
// function releases on every path (a local fixpoint over
// helper-calls-helper chains, seeded with dependency facts) and
// exports them as the pass's Fact, so `statusError(resp)` — which
// drains and closes resp.Body — counts as a release at its call sites,
// in this package and in its dependents.
package lifecycle

import (
	"go/ast"
	"go/types"
	"slices"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/cfg"
)

// Spec configures one resource family.
type Spec struct {
	// IsResource reports whether a call result or parameter of type t
	// is tracked.
	IsResource func(t types.Type) bool
	// Opens, when non-nil, replaces acquisition by call result: a
	// statement's call opens an obligation on the object Opens returns
	// for it (`s.wg.Add(1)` on the field wg), nil for any other call.
	Opens func(info *types.Info, call *ast.CallExpr) types.Object
	// IsRelease reports whether call releases the resource held in
	// obj directly (obj.Close(), obj.Body.Close(), obj.Stop()).
	IsRelease func(info *types.Info, call *ast.CallExpr, obj types.Object) bool
	// Aliases reports whether assigning a selector/index of the
	// resource to a variable aliases the closable part (resp.Body
	// does; resp.StatusCode does not). Nil means never.
	Aliases func(t types.Type) bool
	// ConsumesKnown reports extra ownership-transfer knowledge about
	// a resolved callee (http.Serve consumes its net.Listener).
	// Unknown and dynamic callees always consume. Nil means no known
	// callee consumes.
	ConsumesKnown func(fn *types.Func) bool
	// LeakMessage renders the diagnostic for obj leaking.
	LeakMessage func(obj types.Object) string
	// DiscardMessage, when non-nil, enables reporting resource
	// results that are discarded outright (blank identifier or bare
	// call statement); t is the discarded resource type.
	DiscardMessage func(t types.Type) string
}

// Fact records which declared functions release a resource-typed
// parameter on every path, keyed by FuncID; values are flat parameter
// indices. Every lifecycle pass exports this one type (facts are kept
// per analyzer, so the families do not mix).
type Fact struct {
	Closers map[string][]int
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

// Run is a lifecycle pass's whole Analyzer.Run: it classifies the
// package's closer helpers, exports them for dependents, and reports
// every resource of spec's family that leaks in any function scope.
func Run(pass *analysis.Pass, spec *Spec) {
	closers := closersOf(pass, spec)
	if len(closers) > 0 {
		pass.ExportPackageFact(&Fact{Closers: closers})
	}
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(body *ast.BlockStmt, decl *ast.FuncDecl) {
			name := "func literal"
			if decl != nil {
				name = decl.Name.Name
			}
			g := cfg.New(name, body)
			for _, blk := range g.Blocks {
				if blk == g.Exit {
					continue
				}
				for i, n := range blk.Nodes {
					checkNode(pass, spec, closers, g, blk, i, n)
				}
			}
		})
	}
}

// checkNode inspects one CFG node for acquisition sites.
func checkNode(pass *analysis.Pass, spec *Spec, closers map[string][]int, g *cfg.CFG, blk *cfg.Block, idx int, n ast.Node) {
	call, lhs := acquireParts(n)
	if call == nil {
		return
	}
	leaks := func(obj, err types.Object) bool {
		tracked := &cfg.Tracked{
			Info:      pass.TypesInfo,
			Obj:       obj,
			Err:       err,
			ErrBlock:  blk,
			Releases:  releasePredicate(pass, spec, closers, obj),
			Consumes:  consumePredicate(pass, spec),
			AliasType: spec.Aliases,
		}
		return tracked.Leaks(g, blk, idx)
	}
	if spec.Opens != nil {
		if obj := spec.Opens(pass.TypesInfo, call); obj != nil && leaks(obj, nil) {
			pass.Reportf(call.Pos(), "%s", spec.LeakMessage(obj))
		}
		return
	}
	results := resultTypes(pass.TypesInfo, call)
	for k, rt := range results {
		if rt == nil || !spec.IsResource(rt) {
			continue
		}
		var id *ast.Ident
		if k < len(lhs) {
			if l, ok := ast.Unparen(lhs[k]).(*ast.Ident); ok {
				id = l
			} else {
				// Assigned straight into a field/index: stored, the
				// resource escaped at birth.
				continue
			}
		}
		if id == nil || id.Name == "_" {
			if spec.DiscardMessage != nil {
				pass.Reportf(call.Pos(), "%s", spec.DiscardMessage(rt))
			}
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if leaks(obj, errSibling(pass.TypesInfo, lhs, results)) {
			pass.Reportf(id.Pos(), "%s", spec.LeakMessage(obj))
		}
	}
}

// acquireParts decomposes a node into (call, destinations) when it
// binds call results: `x, err := f()`, `var x, err = f()`, or a bare
// call statement (nil destinations).
func acquireParts(n ast.Node) (*ast.CallExpr, []ast.Expr) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				return call, s.Lhs
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || len(gd.Specs) != 1 {
			return nil, nil
		}
		vs, ok := gd.Specs[0].(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 {
			return nil, nil
		}
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			lhs := make([]ast.Expr, len(vs.Names))
			for i, nm := range vs.Names {
				lhs[i] = nm
			}
			return call, lhs
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			return call, nil
		}
	}
	return nil, nil
}

// resultTypes flattens the call's result tuple.
func resultTypes(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		out := make([]types.Type, tup.Len())
		for i := 0; i < tup.Len(); i++ {
			out[i] = tup.At(i).Type()
		}
		return out
	}
	return []types.Type{tv.Type}
}

// errSibling finds the error variable bound by the same acquire, for
// nil-branch pruning.
func errSibling(info *types.Info, lhs []ast.Expr, results []types.Type) types.Object {
	for j, rt := range results {
		if rt == nil || j >= len(lhs) {
			continue
		}
		if named, ok := rt.(*types.Named); !ok || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
			continue
		}
		if id, ok := ast.Unparen(lhs[j]).(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				return obj
			}
			return info.Uses[id]
		}
	}
	return nil
}

// releasePredicate builds the Tracked.Releases hook: a direct release
// on obj, or obj forwarded as an argument to a callee classified as a
// closer for that position.
func releasePredicate(pass *analysis.Pass, spec *Spec, closers map[string][]int, obj types.Object) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		if spec.IsRelease(pass.TypesInfo, call, obj) {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return false
		}
		for i, arg := range call.Args {
			if cfg.Operand(pass.TypesInfo, arg) == obj && calleeReleasesArg(pass, closers, fn, i) {
				return true
			}
		}
		return false
	}
}

// calleeReleasesArg consults the local closer classification and
// dependency facts.
func calleeReleasesArg(pass *analysis.Pass, closers map[string][]int, fn *types.Func, i int) bool {
	id := analysis.FuncID(fn)
	if id == "" || fn.Pkg() == nil {
		return false
	}
	var idxs []int
	if fn.Pkg() == pass.Pkg {
		idxs = closers[id]
	} else if f, ok := pass.PackageFact(fn.Pkg().Path()).(*Fact); ok {
		idxs = f.Closers[id]
	}
	return slices.Contains(idxs, i)
}

// consumePredicate builds the Tracked.Consumes hook.
func consumePredicate(pass *analysis.Pass, spec *Spec) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true // dynamic call: assume ownership transfers
		}
		return spec.ConsumesKnown != nil && spec.ConsumesKnown(fn)
	}
}

// closersOf classifies every function declared in the package: for
// each resource-typed parameter, does every path to the function exit
// release it? Escapes do not count — a helper that stores or returns
// the resource leaves closing to someone else. Helper-calls-helper
// chains converge by fixpoint; dependency facts are final.
func closersOf(pass *analysis.Pass, spec *Spec) map[string][]int {
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
			params := resourceParams(pass, spec, fd)
			if len(params) == 0 {
				continue
			}
			cands = append(cands, candidate{id: id, g: cfg.New(fd.Name.Name, fd.Body), params: params})
		}
	}
	closers := make(map[string][]int)
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			for _, p := range c.params {
				if slices.Contains(closers[c.id], p.index) {
					continue
				}
				tracked := &cfg.Tracked{
					Info:     pass.TypesInfo,
					Obj:      p.obj,
					Releases: releasePredicate(pass, spec, closers, p.obj),
				}
				if tracked.ReleasedOnEveryPath(c.g) {
					closers[c.id] = append(closers[c.id], p.index)
					changed = true
				}
			}
		}
	}
	return closers
}

// paramSite is one resource-typed parameter of a declared function.
type paramSite struct {
	index int
	obj   types.Object
}

// resourceParams returns the flat indices (receiver excluded) of
// resource-typed, named parameters.
func resourceParams(pass *analysis.Pass, spec *Spec, fd *ast.FuncDecl) []paramSite {
	var out []paramSite
	idx := 0
	for _, field := range fd.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			idx++ // unnamed parameter still occupies an index
			continue
		}
		for _, nm := range names {
			obj := pass.TypesInfo.Defs[nm]
			if obj != nil && nm.Name != "_" && spec.IsResource(obj.Type()) {
				out = append(out, paramSite{index: idx, obj: obj})
			}
			idx++
		}
	}
	return out
}

// MethodOn reports whether call is a niladic-or-any method named
// method invoked directly on obj (`obj.Close()`, `obj.Stop()`).
func MethodOn(info *types.Info, call *ast.CallExpr, obj types.Object, method string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == obj
}
