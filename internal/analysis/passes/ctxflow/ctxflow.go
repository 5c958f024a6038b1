// Package ctxflow checks that context.Context values actually flow:
// a function that was handed a ctx must not discard it by minting
// context.Background()/context.TODO(), must prefer the ...Context
// variant of a callee when one exists, and must not bury cancellation
// by calling module functions that (transitively) block without
// accepting a ctx. Library packages must not mint root contexts at
// all — only package main owns the root.
//
// The per-package fact records, for every declared function, whether
// it takes a ctx parameter, whether it (transitively) blocks, and
// whether it forwards a ctx to a callee. Blocking is seeded from a
// small set of well-known stdlib calls (time.Sleep, the net and
// net/http dial/roundtrip surface, os/exec waits, WaitGroup.Wait) and
// propagated over static call edges — dependency facts first, then a
// local fixpoint — so "this helper five frames down sleeps" is
// visible at the ctx-holding caller.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"comtainer/internal/analysis"
)

// Analyzer reports dropped or unplumbed contexts.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "a received context.Context must be passed on: no context.Background()/TODO() " +
		"where a ctx is in scope or in library packages, no plain F when FContext exists, " +
		"and no transitively-blocking in-module callee that cannot receive the ctx",
	Run: run,
}

// Fact summarizes the ctx behavior of every function in a package.
type Fact struct {
	Funcs map[string]*FuncCtx
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

// FuncCtx is one function's ctx summary.
type FuncCtx struct {
	// HasCtx reports a context.Context parameter.
	HasCtx bool
	// Blocking reports that the function can block, directly or
	// through a static callee chain.
	Blocking bool
	// PassesCtx reports that some call site receives a ctx argument.
	PassesCtx bool
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == "context" {
		return nil
	}

	funcs, calls := summarizePackage(pass)
	propagateBlocking(pass, funcs, calls)

	fact := &Fact{Funcs: funcs}
	if len(funcs) > 0 {
		pass.ExportPackageFact(fact)
	}

	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(body *ast.BlockStmt, decl *ast.FuncDecl) {
			hasCtx := decl != nil && ctxParam(pass, decl) != nil
			analysis.InspectShallow(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkCall(pass, call, hasCtx, isMain, funcs)
				return true
			})
		})
	}
	return nil
}

// checkCall applies the three report rules to one call site.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, hasCtx, isMain bool, local map[string]*FuncCtx) {
	if analysis.IsPkgFunc(pass.TypesInfo, call, "context", "Background", "TODO") {
		name := analysis.Callee(pass.TypesInfo, call).Name()
		switch {
		case hasCtx:
			pass.Reportf(call.Pos(),
				"context.%s() discards the ctx parameter already in scope; pass ctx instead", name)
		case !isMain:
			pass.Reportf(call.Pos(),
				"context.%s() in library code mints a root context; accept a ctx parameter and plumb it from the caller", name)
		}
		return
	}
	if !hasCtx {
		return
	}

	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || hasCtxParam(fn) || receivesCtx(pass, call) {
		return
	}

	// Prefer the FContext sibling when the API offers one.
	if sib := ctxSibling(fn); sib != "" {
		pass.Reportf(call.Pos(),
			"call to %s drops ctx; use %s so cancellation propagates", fn.Name(), sib)
		return
	}

	// In-module callee that transitively blocks and has no way to
	// receive the ctx: cancellation dies here. Callees taking function
	// values are exempt — cancellation can reach them through the
	// supplied closures (the worker-pool pattern: runPool waits on
	// tasks that each capture ctx).
	if takesFuncParam(fn) {
		return
	}
	if id := analysis.FuncID(fn); id != "" && calleeBlocks(pass, fn, id, local) {
		pass.Reportf(call.Pos(),
			"%s blocks (transitively) but cannot receive ctx; thread ctx through it or select on ctx.Done()", fn.Name())
	}
}

// ctxSibling returns the name of a ...Context variant of fn visible at
// its declaration site — a package-scope sibling for functions, a
// method-set sibling for methods — provided the variant takes a ctx.
func ctxSibling(fn *types.Func) string {
	want := fn.Name() + "Context"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() != nil {
		recv := sig.Recv().Type()
		if !types.IsInterface(recv) {
			recv = types.NewPointer(derefNamed(recv))
		}
		mset := types.NewMethodSet(recv)
		if sel := mset.Lookup(fn.Pkg(), want); sel != nil {
			if m, ok := sel.Obj().(*types.Func); ok && hasCtxParam(m) {
				return want
			}
		}
		return ""
	}
	if fn.Pkg() == nil {
		return ""
	}
	if sib, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok && hasCtxParam(sib) {
		return want
	}
	return ""
}

func derefNamed(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// calleeBlocks resolves a callee's transitive blocking bit from the
// local summaries or, across packages, from the dependency's fact.
func calleeBlocks(pass *analysis.Pass, fn *types.Func, id string, local map[string]*FuncCtx) bool {
	if fc, ok := local[id]; ok {
		return fc.Blocking
	}
	if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return false
	}
	if f, ok := pass.PackageFact(fn.Pkg().Path()).(*Fact); ok && f != nil {
		if fc, ok := f.Funcs[id]; ok {
			return fc.Blocking
		}
	}
	return false
}

// summarizePackage builds the per-function summaries and the static
// local call edges used by the blocking fixpoint.
func summarizePackage(pass *analysis.Pass) (map[string]*FuncCtx, map[string][]string) {
	funcs := make(map[string]*FuncCtx)
	calls := make(map[string][]string)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			id := analysis.FuncID(fn)
			if id == "" {
				continue
			}
			fc := &FuncCtx{HasCtx: ctxParam(pass, fd) != nil}
			analysis.InspectShallow(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if directBlocking(pass.TypesInfo, call) {
					fc.Blocking = true
				}
				if receivesCtx(pass, call) {
					fc.PassesCtx = true
				}
				if callee := analysis.Callee(pass.TypesInfo, call); callee != nil {
					if cid := analysis.FuncID(callee); cid != "" {
						calls[id] = append(calls[id], cid)
					}
				}
				return true
			})
			funcs[id] = fc
		}
	}
	return funcs, calls
}

// propagateBlocking closes Blocking over static call edges: dependency
// facts are final (packages are analyzed in dependency order), local
// edges iterate to a fixpoint.
func propagateBlocking(pass *analysis.Pass, funcs map[string]*FuncCtx, calls map[string][]string) {
	blocked := func(id string) bool {
		if fc, ok := funcs[id]; ok {
			return fc.Blocking
		}
		if f, ok := pass.PackageFact(pkgOf(id)).(*Fact); ok && f != nil {
			if fc, ok := f.Funcs[id]; ok {
				return fc.Blocking
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for id, fc := range funcs {
			if fc.Blocking {
				continue
			}
			for _, cid := range calls[id] {
				if blocked(cid) {
					fc.Blocking = true
					changed = true
					break
				}
			}
		}
	}
}

// pkgOf extracts the package path from a FuncID ("path.Name" or
// "path.(Type).Name").
func pkgOf(id string) string {
	if i := strings.Index(id, ".("); i >= 0 {
		return id[:i]
	}
	if i := strings.LastIndexByte(id, '.'); i >= 0 {
		return id[:i]
	}
	return id
}

// directBlocking reports calls known to block: sleeps, the net dial /
// http round-trip surface, subprocess waits, WaitGroup.Wait.
func directBlocking(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		return name == "Sleep"
	case "net":
		// The dial/listen/resolve surface; pure helpers (SplitHostPort,
		// ParseIP) stay non-blocking. net/url and friends are not here
		// at all: string manipulation does not block.
		return strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") ||
			strings.HasPrefix(name, "Lookup") || name == "Accept"
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head", "Do", "RoundTrip",
			"Serve", "ServeTLS", "ListenAndServe", "ListenAndServeTLS":
			return true
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return true
		}
	case "sync":
		return name == "Wait"
	}
	return false
}

// ctxParam returns the first context.Context parameter of decl.
func ctxParam(pass *analysis.Pass, decl *ast.FuncDecl) *types.Var {
	fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	return ctxParamOf(fn)
}

func ctxParamOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isCtxType(p.Type()) {
			return p
		}
	}
	return nil
}

func hasCtxParam(fn *types.Func) bool { return ctxParamOf(fn) != nil }

// takesFuncParam reports whether fn accepts a function value (directly
// or inside a slice/variadic), i.e. a callback cancellation can travel
// through.
func takesFuncParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if s, ok := t.Underlying().(*types.Slice); ok {
			t = s.Elem()
		}
		if _, ok := t.Underlying().(*types.Signature); ok {
			return true
		}
	}
	return false
}

// receivesCtx reports whether any argument of call has type
// context.Context.
func receivesCtx(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && isCtxType(tv.Type) {
			return true
		}
	}
	return false
}

func isCtxType(t types.Type) bool {
	path, name := analysis.NamedTypePath(t)
	return path == "context" && name == "Context"
}
