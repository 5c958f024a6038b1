package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the call-graph substrate the interprocedural passes
// share. There is deliberately no materialized whole-program graph
// object: each pass records, per function, its outgoing call edges as
// stable string identifiers (FuncID) in its package fact, and the
// whole-program step links them — class-hierarchy analysis (CHA):
// static calls resolve to their one callee, interface-method calls
// resolve to every visible implementation (Implementations). It also
// holds the identities the lock and field passes agree on: LockClass,
// FieldClass, and SyncLockCall, the one classifier of sync mutex
// calls.

// FuncID returns the stable package-qualified identifier of fn:
// "path.Name" for a package function, "path.(Type).Name" for a method
// (pointer receivers collapse onto the named type, so (*T).M and
// (T).M share an identity). The empty string identifies nothing.
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

// CallTarget classifies one call site: the callee's FuncID and whether
// dispatch goes through an interface method (to be fanned out to
// implementations by the whole-program link step). Calls through plain
// function values return ok=false — a soundness gap the passes accept
// and document.
func CallTarget(info *types.Info, call *ast.CallExpr) (id string, iface bool, ok bool) {
	fn := Callee(info, call)
	if fn == nil {
		return "", false, false
	}
	if sig, sok := fn.Type().(*types.Signature); sok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return FuncID(fn), true, true
		}
	}
	return FuncID(fn), false, true
}

// Implementations enumerates the CHA bindings visible to pkg: for
// every named interface I and every named non-interface type T
// declared in pkg or one of its direct imports, if *T satisfies I,
// each interface method id maps to the implementing method id. The
// whole-program step unions the maps of every package, so a binding
// is found as long as one analyzed package sees both types.
func Implementations(pkg *types.Package) map[string][]string {
	scopes := []*types.Package{pkg}
	scopes = append(scopes, pkg.Imports()...)

	var ifaces []*types.Named
	var concretes []*types.Named
	for _, p := range scopes {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				if named.Underlying().(*types.Interface).NumMethods() > 0 {
					ifaces = append(ifaces, named)
				}
			} else {
				concretes = append(concretes, named)
			}
		}
	}

	out := make(map[string][]string)
	seen := make(map[string]map[string]bool)
	for _, iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		for _, c := range concretes {
			ptr := types.NewPointer(c)
			if !types.Implements(ptr, it) && !types.Implements(c, it) {
				continue
			}
			mset := types.NewMethodSet(ptr)
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				sel := mset.Lookup(im.Pkg(), im.Name())
				if sel == nil {
					continue
				}
				impl, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				iid, cid := FuncID(im), FuncID(impl)
				if iid == "" || cid == "" {
					continue
				}
				if seen[iid] == nil {
					seen[iid] = make(map[string]bool)
				}
				if !seen[iid][cid] {
					seen[iid][cid] = true
					out[iid] = append(out[iid], cid)
				}
			}
		}
	}
	for _, impls := range out {
		sort.Strings(impls)
	}
	return out
}

// MergeImplementations unions CHA binding maps from many packages into
// dst, deduplicating implementation lists.
func MergeImplementations(dst map[string][]string, src map[string][]string) {
	for iface, impls := range src {
		have := make(map[string]bool, len(dst[iface]))
		for _, id := range dst[iface] {
			have[id] = true
		}
		for _, id := range impls {
			if !have[id] {
				have[id] = true
				dst[iface] = append(dst[iface], id)
			}
		}
		sort.Strings(dst[iface])
	}
}

// LockClass resolves the repository-wide identity of the mutex behind
// a lock receiver expression (the x in x.Lock()):
//
//   - a field selector s.mu → "pkgpath.Owner.mu" where Owner is the
//     named type declaring the field (index expressions in between,
//     as in c.shards[i].mu, resolve through the element type);
//   - a package-level var mu → "pkgpath.mu".
//
// Function-local mutexes (and shapes the resolver cannot attribute to
// a named declaration) return "": they cannot participate in a
// cross-function ordering cycle under this abstraction.
func LockClass(info *types.Info, recv ast.Expr) string {
	switch v := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj, ok := info.Uses[v].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		// Package-level mutex: declared directly in package scope.
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.SelectorExpr:
		if _, ok := info.Selections[v]; ok {
			class, _ := FieldClass(info, v)
			return class
		}
		// Qualified identifier pkg.Mu: a package-level var of the
		// imported package (no Selections entry exists for these).
		if x, ok := ast.Unparen(v.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[x].(*types.PkgName); isPkg {
				if obj, ok := info.Uses[v.Sel].(*types.Var); ok && obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name()
				}
			}
		}
	}
	return ""
}

// FieldClass resolves a selector to its field-class identity
// ("pkgpath.Owner.field", where Owner is the named type the selection
// goes through) and the field object; "" when the selector is not a
// struct-field access on a named type.
func FieldClass(info *types.Info, sel *ast.SelectorExpr) (string, *types.Var) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", nil
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return "", nil
	}
	rpath, rname := NamedTypePath(s.Recv())
	if rname == "" {
		return "", nil // anonymous struct: no declaration to name
	}
	if rpath == "" && field.Pkg() != nil {
		rpath = field.Pkg().Path()
	}
	return rpath + "." + rname + "." + field.Name(), field
}

// SyncLockCall classifies call as a sync.Mutex/RWMutex (or
// sync.Locker) method call: recv is the mutex expression (the x in
// x.Lock(), to be resolved with LockClass), acquire is true for
// Lock/RLock and false for Unlock/RUnlock. TryLock/TryRLock are not
// classified: their success is conditional, so they never add to a
// must-hold set. Every pass that reasons about held locks goes
// through here (by way of lockorder.LockOps).
func SyncLockCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}
