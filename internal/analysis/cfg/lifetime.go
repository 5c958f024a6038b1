package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Tracked follows one resource-holding variable through a CFG and
// decides, per node, whether the node settles the resource's fate.
// "Settled" covers both release (the Close/Stop call, directly,
// deferred, or forwarded to a callee known to release it) and escape
// (returned, stored into a field/global/container, sent on a channel,
// captured by a function literal, or handed to a call that takes
// ownership) — in either case this function is no longer responsible
// on that path, so tracking stops.
//
// The escape rules err on the quiet side: aliasing (`g := f`) and any
// store with the resource as a direct operand end tracking rather
// than attempting alias analysis.
type Tracked struct {
	Info *types.Info
	// Obj is the variable — or, for an obligation opened on s.wg, the
	// field — holding the resource.
	Obj types.Object
	// Err, when non-nil, is the error variable assigned by the same
	// acquire; branches on it prune paths where the resource is nil
	// (the `if err != nil { return err }` right after an acquire).
	Err types.Object
	// ErrBlock, when non-nil, restricts Err pruning to conditions
	// evaluated in that block — the acquire's own. The err variable is
	// routinely reassigned by later acquires (`dst, err :=` after
	// `src, err :=`), and a test of the NEW err says nothing about the
	// OLD resource; the idiomatic check straight after an acquire
	// always shares its block.
	ErrBlock *Block
	// Releases reports whether call releases the resource: the
	// resource's own Close/Stop, or a call forwarding it to a known
	// closer (interprocedural facts). The predicate sees every call in
	// the node, including deferred ones.
	Releases func(call *ast.CallExpr) bool
	// Consumes reports whether passing the resource as an argument to
	// call transfers ownership. Typical policy: unknown or dynamic
	// callees consume (assume the ecosystem behaves), known callees
	// do not (they would be Releases if they closed).
	Consumes func(call *ast.CallExpr) bool
	// AliasType, when non-nil, decides whether assigning a
	// selector/index rooted at the resource aliases its closable part
	// and therefore escapes it: `body := resp.Body` does (io.ReadCloser),
	// `code := resp.StatusCode` does not (int).
	AliasType func(t types.Type) bool
}

// Leaks reports whether some path from the acquisition — node index i
// of block b — reaches the function exit with the resource neither
// released nor escaped.
func (t *Tracked) Leaks(g *CFG, b *Block, i int) bool {
	return ReachesExit(g, b, i, t.settles, t.deadEdge)
}

// ReleasedOnEveryPath reports whether every path from the function
// entry to its exit releases the resource (escapes do NOT count) —
// the classifier behind "this helper closes the argument it is
// handed" interprocedural facts, run with Obj bound to a parameter.
func (t *Tracked) ReleasedOnEveryPath(g *CFG) bool {
	stop := func(n ast.Node) bool {
		released := false
		ast.Inspect(n, func(m ast.Node) bool {
			if released {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok {
				return false // a literal body runs elsewhere, maybe never
			}
			if call, ok := m.(*ast.CallExpr); ok && t.Releases != nil && t.Releases(call) {
				released = true
				return false
			}
			return true
		})
		return released
	}
	return !ReachesExit(g, g.Entry, -1, stop, t.deadEdge)
}

// settles reports whether node n releases or escapes the resource.
func (t *Tracked) settles(n ast.Node) bool {
	settled := false
	ast.Inspect(n, func(m ast.Node) bool {
		if settled {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			// A closure capturing the resource may release it later
			// (cleanup callbacks) — ownership has escaped either way.
			if t.mentions(m) {
				settled = true
			}
			return false
		case *ast.CallExpr:
			if t.Releases != nil && t.Releases(m) {
				settled = true
				return false
			}
			if t.argMentions(m) && t.Consumes != nil && t.Consumes(m) {
				settled = true
				return false
			}
		case *ast.ReturnStmt:
			// Only returning the resource itself (or an alias of its
			// closable part) escapes it; `return resp.StatusCode` hands
			// back an int and keeps the body this function's problem.
			// Calls among the results are judged by the CallExpr case.
			for _, r := range m.Results {
				if t.directOperand(r) {
					settled = true
					return false
				}
			}
		case *ast.SendStmt:
			if t.directOperand(m.Value) {
				settled = true
				return false
			}
		case *ast.AssignStmt:
			// Storing or aliasing the resource itself (`u.file = f`,
			// `g := f`, `m[k] = f`, `x = &T{f: f}`) escapes it. Calls
			// on the right-hand side are judged by the CallExpr case,
			// not here.
			for _, r := range m.Rhs {
				if t.directOperand(r) {
					settled = true
					return false
				}
			}
		}
		return true
	})
	return settled
}

// mentions reports whether the resource variable is used anywhere in
// n.
func (t *Tracked) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && t.Info.Uses[id] == t.Obj {
			found = true
		}
		return true
	})
	return found
}

// argMentions reports whether the resource appears in call's argument
// list outside nested calls (a nested call receiving it is judged on
// its own) and outside function literals (judged as captures).
func (t *Tracked) argMentions(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(m ast.Node) bool {
			if found {
				return false
			}
			switch m := m.(type) {
			case *ast.CallExpr, *ast.FuncLit:
				return false
			case *ast.Ident:
				if t.Info.Uses[m] == t.Obj {
					found = true
				}
			}
			return true
		})
	}
	return found
}

// Operand resolves e to the variable or field it denotes, through
// parentheses, & and *: `x`, `&x` and `*x` are the variable x, `s.x`
// and `&s.x` the field x. Other shapes (map and slice elements, calls)
// resolve to nil.
func Operand(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return Operand(info, e.X)
		}
	case *ast.StarExpr:
		return Operand(info, e.X)
	}
	return nil
}

// directOperand reports whether e is the resource itself (see
// Operand), the address of any such form, a composite literal
// embedding it, or (subject to AliasType) a selector/index rooted at
// it whose type aliases the closable part — the forms whose assignment
// aliases or stores the resource.
func (t *Tracked) directOperand(e ast.Expr) bool {
	if Operand(t.Info, e) == t.Obj {
		return true
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.AND && t.directOperand(e.X)
	case *ast.CompositeLit:
		return t.mentions(e)
	case *ast.SelectorExpr, *ast.IndexExpr:
		if t.AliasType == nil || !t.mentions(e) {
			return false
		}
		if tv, ok := t.Info.Types[e]; ok && tv.Type != nil {
			return t.AliasType(tv.Type)
		}
	}
	return false
}

// deadEdge prunes conditional edges along which the resource is known
// nil: after `x, err := acquire()`, the true branch of `err != nil`
// (and the false branch of `err == nil`), and branches testing the
// resource itself against nil. This is what makes the engine
// path-sensitive enough for the idiomatic
//
//	resp, err := client.Do(req)
//	if err != nil {
//		return err // no body to close here
//	}
//	defer resp.Body.Close()
//
// sequence to come out clean.
func (t *Tracked) deadEdge(from, to *Block) bool {
	if from.Cond == nil || len(from.Succs) != 2 {
		return false
	}
	be, ok := ast.Unparen(from.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return false
	}
	var x ast.Expr
	switch {
	case t.isNil(be.Y):
		x = be.X
	case t.isNil(be.X):
		x = be.Y
	default:
		return false
	}
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	obj := t.Info.Uses[id]
	if obj == nil {
		return false
	}
	var liveWhenTrue bool
	switch obj {
	case t.Err:
		if t.ErrBlock != nil && from != t.ErrBlock {
			return false // stale err: reassigned since the acquire
		}
		// err == nil ⇒ the acquire succeeded ⇒ resource live.
		liveWhenTrue = be.Op == token.EQL
	case t.Obj:
		// resource != nil ⇒ live.
		liveWhenTrue = be.Op == token.NEQ
	default:
		return false
	}
	if liveWhenTrue {
		return to == from.Succs[1] // false branch: resource is nil
	}
	return to == from.Succs[0] // true branch: resource is nil
}

func (t *Tracked) isNil(e ast.Expr) bool {
	if tv, ok := t.Info.Types[e]; ok {
		return tv.IsNil()
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
