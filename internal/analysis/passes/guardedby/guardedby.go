// Package guardedby infers, for every struct field declared in this
// module, which lock protects it — by majority vote over all of the
// field's accesses — and reports the accesses where the inferred guard
// is provably not held, the RacerD-style static data-race check.
//
// Per package, every function scope is lowered to its CFG and run
// through the must-hold lockset dataflow (cfg.ComputeLockSets with
// lockorder.LockOps): sync (R)Lock/(R)Unlock calls acquire and release
// lock classes (analysis.LockClass identities), `defer mu.Unlock()`
// keeps the class held to the synthetic exit, and calls into in-module
// functions apply the acquire/release summaries lockorder exported as
// facts (a `lock()` helper leaves its class held; an `unlock()` helper
// removes it). Each field access is recorded with the classes
// definitely held at its CFG node, whether it is a read or a write,
// and whether it runs on a spawned goroutine. The whole-program Finish
// step merges the access records of every package, adds to each access
// the locks its function is always entered with (entryLocks: what
// every caller of an unexported `fooLocked` helper holds at every
// call, from lockorder's call sites), computes the set of functions
// reachable from a goroutine spawn site through the CHA call graph
// (interface calls fanned out via lockorder's Impls facts), and for
// each field with at least one concurrent access takes the vote: if
// one lock class is held at a strict majority of at least two
// accesses, every access without it is reported — "field Proxy.table
// is guarded by Proxy.mu on 9/11 accesses; unguarded write".
//
// Accepted unsoundness, documented for a linter backed by audited
// //comtainer:allow comments: lock classes collapse all instances of a
// type, aliasing through pointers copied into other structures is
// invisible, reflection and unsafe bypass the AST entirely, a helper
// reached through a function or method value is entered with locks no
// call site vouches for, and RLock counts as holding the class (a
// write under RLock still satisfies the vote). Accesses through locals
// the function itself allocated (`p := &Proxy{...}; p.table = ...`)
// are skipped as owned — unpublished values cannot race.
package guardedby

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/cfg"
	"comtainer/internal/analysis/passes/lockorder"
)

// Analyzer reports field accesses that do not hold the field's
// inferred guard lock.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "a struct field protected by a lock on most accesses must hold that lock on " +
		"every access reachable from a goroutine; an unguarded access is a data race",
	Run:    run,
	Finish: finish,
}

// Fact is the per-package summary guardedby exports: every field
// access with its held lockset, plus the call and spawn edges the
// Finish step needs for goroutine reachability.
type Fact struct {
	// Fields maps field class ("pkg.Type.Field") → accesses observed
	// in this package.
	Fields map[string][]Access
	// Funcs maps analysis.FuncID → the function's outgoing edges.
	Funcs map[string]*FuncConc
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

// Access is one read or write of a shared struct field.
type Access struct {
	// Fn is the FuncID of the enclosing declared function ("" for
	// file-level initializers).
	Fn string
	// Write marks assignments, ++/--, and address-taken uses.
	Write bool
	// Lit marks accesses inside a function literal: the literal may
	// run anywhere, so Fn's entry locks say nothing about it.
	Lit bool
	// Go marks accesses lexically inside a go-statement's function
	// literal: directly concurrent regardless of reachability.
	Go bool
	// Held are the lock classes definitely held at the access.
	Held []string
	// Pos locates the access for reporting.
	Pos token.Position
}

// FuncConc is one function's outgoing edges for the reachability walk.
type FuncConc struct {
	// Calls are in-module callees invoked synchronously (static
	// FuncIDs and interface-method IDs, resolved via Impls at Finish).
	Calls []string
	// Spawns are callees invoked on a new goroutine: `go f()` targets
	// and every call made inside a go-statement's literal body.
	Spawns []string
}

func run(pass *analysis.Pass) error {
	w := &walker{
		pass: pass,
		seg:  analysis.FirstSegment(pass.Pkg.Path()),
		ops:  lockorder.LockOps(pass, nil),
		fact: &Fact{Fields: make(map[string][]Access), Funcs: make(map[string]*FuncConc)},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			w.scope(fd.Name.Name, analysis.FuncID(fn), fd.Body, false, false)
		}
	}
	if len(w.fact.Fields) > 0 || len(w.fact.Funcs) > 0 {
		pass.ExportPackageFact(w.fact)
	}
	return nil
}

// walker accumulates one package's fact while descending through
// function scopes.
type walker struct {
	pass *analysis.Pass
	seg  string
	ops  func(ast.Node) []cfg.LockOp
	fact *Fact
}

// scope analyzes one function body: lockset dataflow, field accesses,
// call/spawn edges, then recurses into nested literals. fnID
// attributes everything to the enclosing declared function; lit marks
// a literal's body and inGo one that executes on a spawned goroutine.
func (w *walker) scope(name, fnID string, body *ast.BlockStmt, lit, inGo bool) {
	owned := ownedLocals(w.pass.TypesInfo, body)
	cfg.ComputeLockSets(cfg.New(name, body), w.ops).Walk(func(n ast.Node, held []string) {
		w.accesses(n, Access{Fn: fnID, Lit: lit, Go: inGo, Held: held}, owned)
		w.edges(n, fnID, inGo)
	})
	// Nested literals are their own scopes with empty entry locksets —
	// a callback or goroutine body does not inherit the spawner's
	// locks. A literal that is the operand of `go lit()` is concurrent;
	// the GoStmt is visited before its literal, so the mark is in place
	// when the literal's scope is built.
	spawned := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
				spawned[lit] = true
			}
		case *ast.FuncLit:
			w.scope(name+".func", fnID, v.Body, true, inGo || spawned[v])
			return false
		}
		return true
	})
}

// accesses records every shared-field read and write inside one CFG
// node (not descending into literals, which are separate scopes); at
// carries what every access in the node has in common.
func (w *walker) accesses(n ast.Node, at Access, owned map[types.Object]bool) {
	info := w.pass.TypesInfo
	writes := analysis.WriteTargets(n)
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isAtomicMethod(info, v) {
				return false // the type system's domain: an atomic.Int64 has no plain access
			}
		case *ast.SelectorExpr:
			class, field := analysis.FieldClass(info, v)
			if class == "" || field.Pkg() == nil || analysis.FirstSegment(field.Pkg().Path()) != w.seg ||
				excludedFieldType(field.Type()) {
				break
			}
			if obj := rootObj(info, v); obj != nil && owned[obj] {
				break
			}
			at.Write, at.Pos = writes[v], w.pass.Fset.Position(v.Sel.Pos())
			w.fact.Fields[class] = append(w.fact.Fields[class], at)
		}
		return true
	})
}

// edges records call and spawn edges out of one CFG node.
func (w *walker) edges(n ast.Node, fnID string, inGo bool) {
	if fnID == "" {
		return
	}
	info := w.pass.TypesInfo
	goCalls := make(map[*ast.CallExpr]bool)
	analysis.InspectShallow(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.GoStmt:
			goCalls[v.Call] = true // visited before its child call
		case *ast.CallExpr:
			fn := analysis.Callee(info, v)
			if fn == nil || fn.Pkg() == nil || analysis.FirstSegment(fn.Pkg().Path()) != w.seg {
				return true
			}
			id, _, ok := analysis.CallTarget(info, v)
			if !ok {
				return true
			}
			c := w.conc(fnID)
			list := &c.Calls
			if inGo || goCalls[v] {
				list = &c.Spawns
			}
			if !slices.Contains(*list, id) {
				*list = append(*list, id)
			}
		}
		return true
	})
}

func (w *walker) conc(id string) *FuncConc {
	c := w.fact.Funcs[id]
	if c == nil {
		c = &FuncConc{}
		w.fact.Funcs[id] = c
	}
	return c
}

// --- whole-program step ---

func finish(fp *analysis.FinishPass) error {
	fields := make(map[string][]Access)
	funcs := make(map[string]*FuncConc)
	for _, f := range fp.Facts {
		fact := f.(*Fact)
		for class, accs := range fact.Fields {
			fields[class] = append(fields[class], accs...)
		}
		for id, c := range fact.Funcs {
			funcs[id] = c
		}
	}

	// Lock summaries and CHA bindings come from lockorder's facts:
	// guardedby piggybacks on the same call sites and the same
	// interface→implementation view rather than exporting a second
	// copy.
	locks := make(map[string]*lockorder.FuncLocks)
	impls := make(map[string][]string)
	for _, f := range fp.AnalyzerFacts(lockorder.Analyzer.Name) {
		lf := f.(*lockorder.Fact)
		for id, fl := range lf.Funcs {
			locks[id] = fl
		}
		analysis.MergeImplementations(impls, lf.Impls)
	}

	entry := entryLocks(locks, impls)
	reachable := goroutineReachable(funcs, impls)

	for _, class := range analysis.SortedKeys(fields) {
		accs := fields[class]
		for i, a := range accs {
			if a.Lit {
				continue
			}
			for h := range entry[a.Fn] {
				if held := accs[i].Held; !slices.Contains(held, h) {
					// One Held slice serves every access of a CFG
					// node: cap the slice so append copies.
					accs[i].Held = append(held[:len(held):len(held)], h)
				}
			}
		}
		sort.Slice(accs, func(i, j int) bool { return analysis.PosBefore(accs[i].Pos, accs[j].Pos) })
		voteAndReport(fp, class, accs, reachable)
	}
	return nil
}

// entryLocks computes the locks each unexported function is always
// entered with: the intersection, over every call site of it, of the
// locks held at the site and the caller's own entry locks — the
// greatest fixpoint, so a chain of fooLocked helpers inherits from the
// exported method that took the lock. This is what makes the Locked
// suffix checkable: statLocked's accesses count as guarded because
// every caller holds f.mu, and stop counting the day one does not.
//
// Only unexported functions get an answer: their callers are all in
// one package, so "every call site" is every site lockorder saw —
// declared functions and literals alike, `go f()` sites holding
// nothing, interface calls fanned out to their implementations.
func entryLocks(locks map[string]*lockorder.FuncLocks, impls map[string][]string) map[string]map[string]bool {
	type site struct {
		caller string
		held   []string
	}
	sites := make(map[string][]site)
	for caller, fl := range locks {
		for _, c := range fl.Calls {
			for _, callee := range c.Targets(impls) {
				if !token.IsExported(callee[strings.LastIndexByte(callee, '.')+1:]) {
					sites[callee] = append(sites[callee], site{caller, c.Held})
				}
			}
		}
	}
	// A function with sites starts at "every lock" (absent from
	// entry) and only loses classes; one without sites, or called
	// only by callers still at "every lock" when the iteration
	// settles (unreachable recursion), is entered with none.
	entry := make(map[string]map[string]bool)
	for changed := true; changed; {
		changed = false
		for callee, ss := range sites {
			var meet map[string]bool
			for _, s := range ss {
				callerEntry, settled := entry[s.caller]
				if _, called := sites[s.caller]; called && !settled {
					continue // caller still at "every lock": no constraint yet
				}
				at := make(map[string]bool, len(s.held)+len(callerEntry))
				for _, h := range s.held {
					at[h] = true
				}
				for h := range callerEntry {
					at[h] = true
				}
				if meet == nil {
					meet = at
					continue
				}
				for h := range meet {
					if !at[h] {
						delete(meet, h)
					}
				}
			}
			if meet != nil && (entry[callee] == nil || len(meet) != len(entry[callee])) {
				entry[callee] = meet
				changed = true
			}
		}
	}
	return entry
}

// goroutineReachable computes the FuncIDs reachable from any spawn
// site: spawn targets seed the set, and both synchronous calls and
// further spawns propagate it. Interface-method IDs fan out to their
// known implementations.
func goroutineReachable(funcs map[string]*FuncConc, impls map[string][]string) map[string]bool {
	reachable := make(map[string]bool)
	var queue []string
	add := func(id string) {
		if !reachable[id] {
			reachable[id] = true
			queue = append(queue, id)
		}
		for _, impl := range impls[id] {
			if !reachable[impl] {
				reachable[impl] = true
				queue = append(queue, impl)
			}
		}
	}
	for _, c := range funcs {
		for _, id := range c.Spawns {
			add(id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		c := funcs[id]
		if c == nil {
			continue
		}
		for _, callee := range c.Calls {
			add(callee)
		}
		for _, callee := range c.Spawns {
			add(callee)
		}
	}
	return reachable
}

// voteAndReport takes the majority vote over one field's accesses and
// reports the accesses missing the winning guard. The field must have
// at least one concurrent access (inside a spawned literal, or in a
// function reachable from a spawn site); the winner must be held at a
// strict majority of at least two accesses.
func voteAndReport(fp *analysis.FinishPass, class string, accs []Access, reachable map[string]bool) {
	concurrent := false
	for _, a := range accs {
		if a.Go || reachable[a.Fn] {
			concurrent = true
			break
		}
	}
	if !concurrent {
		return
	}

	count := make(map[string]int)
	for _, a := range accs {
		for _, h := range a.Held {
			count[h]++
		}
	}
	guard, n := "", 0
	for _, h := range analysis.SortedKeys(count) {
		if count[h] > n {
			guard, n = h, count[h]
		}
	}
	if guard == "" || n < 2 || 2*n <= len(accs) {
		return // no inferable invariant, or too weak a majority
	}
	for _, a := range accs {
		if slices.Contains(a.Held, guard) {
			continue
		}
		kind := "read"
		if a.Write {
			kind = "write"
		}
		fp.Report(analysis.Diagnostic{
			Pos:      a.Pos,
			Analyzer: fp.Analyzer.Name,
			Message: fmt.Sprintf("field %s is guarded by %s on %d/%d accesses; unguarded %s",
				class, guard, n, len(accs), kind),
		})
	}
}

// --- helpers ---

// excludedFieldType reports fields that are synchronization primitives
// themselves (mutexes, wait groups, atomics — their access discipline
// is their own) or channels (synchronized by construction).
func excludedFieldType(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	path, _ := analysis.NamedTypePath(t)
	return path == "sync" || path == "sync/atomic"
}

// isAtomicMethod reports method calls on sync/atomic value types
// (atomic.Int64.Add and family).
func isAtomicMethod(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && fn.Pkg().Path() == "sync/atomic"
}

// rootObj unwraps a selector/index chain to its base identifier's
// object (`p.cache.table` → p, `s.shards[i].n` → s); nil for chains
// rooted in calls or other expressions.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.Ident:
			return info.Uses[v]
		default:
			return nil
		}
	}
}

// ownedLocals collects variables the body itself allocates (`p :=
// &Proxy{...}`, `var p = new(Proxy)`, `q := Proxy{}`): accesses
// through them touch unpublished memory and carry no race risk until
// the value escapes — by which point other functions' accesses, not
// these, vote on the guard.
func ownedLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	analysis.InspectShallow(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE || len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.Defs[id]; obj != nil && allocExpr(info, v.Rhs[i]) {
					owned[obj] = true
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) != len(v.Values) {
				return true
			}
			for i, id := range v.Names {
				if obj := info.Defs[id]; obj != nil && allocExpr(info, v.Values[i]) {
					owned[obj] = true
				}
			}
		}
		return true
	})
	return owned
}

// allocExpr reports expressions that denote fresh, unshared memory.
func allocExpr(info *types.Info, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return v.Op == token.AND && allocExpr(info, v.X)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
	}
	return false
}
