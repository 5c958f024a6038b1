// Package lockorder builds the repository-wide lock-acquisition order
// graph and reports any cycle in it as a potential deadlock. It is
// also where the suite's answer to "which locks are held here" is put
// together: LockOps is the classifier lockio, guardedby and this
// package's own summaries all hand to cfg.ComputeLockSets.
//
// Per package, the analyzer summarizes every function scope — each
// declared function, and each function literal under its own name —
// over its CFG with the must-hold lockset dataflow: the mutex classes
// it acquires (a class is the declaring package/type/field of the
// sync.Mutex or RWMutex, e.g. distrib.DiskStore.mu — all instances of
// a type share a class), the classes definitely held at each
// acquisition, its outgoing call sites with the classes held there,
// and its net effect for callers (Leaves, Releases). The summaries,
// plus the package's visible interface→implementation bindings
// (class-hierarchy analysis), are exported as facts. The whole-program
// Finish step links call sites to callees — static calls directly,
// interface calls to every known implementation — computes each
// function's transitive acquisition set, and adds an edge A→B whenever
// B is acquired (directly or via a callee chain) while A is held. A
// cycle in that graph means two executions can acquire the same locks
// in opposite orders.
//
// "Held" is must-hold: a lock taken on only one branch is not held
// after the merge, so `if c { a.Lock() }; b.Lock()` contributes no
// a→b edge, and the deadlock its c==true path can take part in goes
// unreported. In exchange an unlock in an early-return branch is not
// mistaken for the end of the section on the path that falls through.
// It is the same choice lockio and guardedby make — one lockset, one
// semantics.
//
// Known approximations, accepted for a linter backed by suppression
// comments: a literal's acquisitions are not attributed to the
// function that merely defines it (it may run anywhere), calls through
// plain function values are invisible, classes collapse all instances
// of a type (two distinct stores of the same type look like one
// lock), and RLock is ordered like Lock (conservative for writer
// interleavings).
package lockorder

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
)

// Analyzer reports cycles in the global lock-acquisition order graph.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "no cycles in the repository-wide lock acquisition order; a cycle " +
		"means two call paths can take the same mutexes in opposite orders and deadlock",
	Run:    run,
	Finish: finish,
}

// Fact is the per-package summary lockorder exports.
type Fact struct {
	// Funcs maps analysis.FuncID → lock summary for every function
	// declared in the package that acquires or calls. The n-th
	// function literal inside F is summarized as "F$n": nothing calls
	// it by that name, so it adds its own ordering evidence and call
	// sites without changing what F is seen to acquire.
	Funcs map[string]*FuncLocks
	// Impls maps interface-method FuncIDs to the in-module methods
	// implementing them, as visible from this package.
	Impls map[string][]string
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

// FuncLocks summarizes one function.
type FuncLocks struct {
	Acquires []Acquire
	Calls    []CallSite

	// Leaves are the lock classes held on every path to the function's
	// return (LockSets.AtExit). A lock() helper leaves its class held;
	// LockOps adds these at a call to it.
	Leaves []string
	// Releases are the classes the function unlocks at a point where
	// it does not itself hold them — an unlock() helper running with
	// the caller's lock held. LockOps removes these at a call to it.
	Releases []string
}

// Acquire is one mutex acquisition with the classes definitely held
// at that point.
type Acquire struct {
	Class string
	Held  []string
	Pos   token.Position
}

// CallSite is one outgoing call with the classes definitely held at
// the call. A `go f()` site holds nothing: the new goroutine does not
// inherit the spawner's locks.
type CallSite struct {
	Callee string
	Iface  bool
	Held   []string
	Pos    token.Position
}

func run(pass *analysis.Pass) error {
	fact := &Fact{Funcs: make(map[string]*FuncLocks)}
	// A helper's Leaves/Releases change what its same-package callers
	// hold, so summarize twice when any exist: the second round sees
	// the first round's summaries (one level of helper nesting; facts
	// of dependency packages are final either way).
	ops := lockOps(pass, nil, func(pkgPath string) *Fact {
		if pkgPath == pass.Pkg.Path() {
			return fact
		}
		f, _ := pass.PackageFact(pkgPath).(*Fact)
		return f
	})
	for round, helpers := 0, true; round < 2 && helpers; round++ {
		helpers = false
		for _, file := range pass.Files {
			lits := make(map[string]int)
			analysis.FuncScopes(file, func(body *ast.BlockStmt, decl *ast.FuncDecl) {
				if decl == nil {
					return // file-level initializer: runs before anything can contend
				}
				fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
				id := analysis.FuncID(fn)
				if id == "" {
					return
				}
				if body != decl.Body {
					lits[id]++
					id = fmt.Sprintf("%s$%d", id, lits[id])
				}
				fl := summarize(pass, ops, id, body)
				if fl == nil {
					delete(fact.Funcs, id)
					return
				}
				fact.Funcs[id] = fl
				helpers = helpers || len(fl.Leaves) > 0 || len(fl.Releases) > 0
			})
		}
	}
	fact.Impls = moduleImpls(pass.Pkg)
	if len(fact.Funcs) > 0 || len(fact.Impls) > 0 {
		pass.ExportPackageFact(fact)
	}
	return nil
}

// moduleImpls keeps only CHA bindings whose implementation lives in
// the current module (same leading path segment as the package):
// foreign code cannot acquire this repository's lock classes.
func moduleImpls(pkg *types.Package) map[string][]string {
	seg := analysis.FirstSegment(pkg.Path())
	out := make(map[string][]string)
	for iface, impls := range analysis.Implementations(pkg) {
		for _, impl := range impls {
			if analysis.FirstSegment(impl) == seg {
				out[iface] = append(out[iface], impl)
			}
		}
	}
	for _, impls := range out {
		sort.Strings(impls)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// LockOps returns the classifier cfg.ComputeLockSets runs over the
// function scopes of pass's package: a sync (R)Lock/(R)Unlock call
// acquires or releases its analysis.LockClass, and a static call to an
// in-module function applies the Leaves/Releases summary lockorder
// exported for it (so lockorder must run earlier in the suite; without
// it such calls are lock-neutral). Calls through interfaces have no
// single summary and change nothing.
//
// unresolved names the class of a mutex LockClass cannot attribute to
// a declaration (a function-local mutex, a field of an anonymous
// struct). Such a name means something only inside one function, so
// passes that compare classes across functions pass nil and those
// mutexes are ignored.
func LockOps(pass *analysis.Pass, unresolved func(recv ast.Expr) string) func(ast.Node) []cfg.LockOp {
	return lockOps(pass, unresolved, func(pkgPath string) *Fact {
		f, _ := pass.AnalyzerFact(Analyzer.Name, pkgPath).(*Fact)
		return f
	})
}

func lockOps(pass *analysis.Pass, unresolved func(ast.Expr) string, factOf func(pkgPath string) *Fact) func(ast.Node) []cfg.LockOp {
	info := pass.TypesInfo
	seg := analysis.FirstSegment(pass.Pkg.Path())
	return func(n ast.Node) []cfg.LockOp {
		var ops []cfg.LockOp
		analysis.InspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, acquire, ok := analysis.SyncLockCall(info, call); ok {
				class := analysis.LockClass(info, recv)
				if class == "" && unresolved != nil {
					class = unresolved(recv)
				}
				if class != "" {
					ops = append(ops, cfg.LockOp{Class: class, Acquire: acquire})
				}
				return true
			}
			id, iface, ok := analysis.CallTarget(info, call)
			if !ok || iface || analysis.FirstSegment(id) != seg {
				return true
			}
			f := factOf(analysis.Callee(info, call).Pkg().Path())
			if f == nil || f.Funcs[id] == nil {
				return true
			}
			fl := f.Funcs[id]
			for _, c := range fl.Releases {
				ops = append(ops, cfg.LockOp{Class: c})
			}
			for _, c := range fl.Leaves {
				ops = append(ops, cfg.LockOp{Class: c, Acquire: true})
			}
			return true
		})
		return ops
	}
}

// summarize runs the lockset dataflow over one function scope (nested
// literals are their own scopes) and produces its summary, or nil when
// the function neither locks nor calls anything relevant.
func summarize(pass *analysis.Pass, ops func(ast.Node) []cfg.LockOp, name string, body *ast.BlockStmt) *FuncLocks {
	info := pass.TypesInfo
	seg := analysis.FirstSegment(pass.Pkg.Path())
	ls := cfg.ComputeLockSets(cfg.New(name, body), ops)
	out := &FuncLocks{Leaves: ls.AtExit()}
	releases := make(map[string]bool)
	ls.Walk(func(n ast.Node, held []string) {
		spawned := make(map[*ast.CallExpr]bool)
		analysis.InspectShallow(n, func(m ast.Node) bool {
			if g, ok := m.(*ast.GoStmt); ok {
				spawned[g.Call] = true // visited before its child call
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, acquire, ok := analysis.SyncLockCall(info, call); ok {
				class := analysis.LockClass(info, recv)
				switch {
				case class == "":
				case acquire:
					out.Acquires = append(out.Acquires, Acquire{Class: class, Held: held, Pos: pass.Fset.Position(call.Pos())})
				case !slices.Contains(held, class):
					releases[class] = true
				}
				return true
			}
			// Only in-module callees can acquire in-module lock
			// classes; foreign calls are omitted to keep facts small.
			// (Interface methods are kept regardless: the
			// implementation may be local even when the interface is
			// foreign.)
			if id, iface, ok := analysis.CallTarget(info, call); ok && (iface || analysis.FirstSegment(id) == seg) {
				site := CallSite{Callee: id, Iface: iface, Held: held, Pos: pass.Fset.Position(call.Pos())}
				if spawned[call] {
					site.Held = nil
				}
				out.Calls = append(out.Calls, site)
			}
			return true
		})
	})
	out.Releases = analysis.SortedKeys(releases)
	if len(out.Acquires) == 0 && len(out.Calls) == 0 &&
		len(out.Leaves) == 0 && len(out.Releases) == 0 {
		return nil
	}
	return out
}

// --- whole-program step ---

func finish(fp *analysis.FinishPass) error {
	funcs := make(map[string]*FuncLocks)
	impls := make(map[string][]string)
	for _, f := range fp.Facts {
		fact := f.(*Fact)
		for id, fl := range fact.Funcs {
			funcs[id] = fl
		}
		analysis.MergeImplementations(impls, fact.Impls)
	}

	trans := transitiveAcquires(funcs, impls)

	edges := make(map[[2]string]token.Position)
	addEdge := func(from, to string, pos token.Position) {
		if from == to {
			// Self-edges are dropped: the class abstraction cannot
			// tell two instances of one type apart, so re-acquisition
			// across instances would drown real cycles in noise.
			return
		}
		k := [2]string{from, to}
		if old, ok := edges[k]; !ok || analysis.PosBefore(pos, old) {
			edges[k] = pos
		}
	}
	for _, fl := range funcs {
		for _, a := range fl.Acquires {
			for _, h := range a.Held {
				addEdge(h, a.Class, a.Pos)
			}
		}
		for _, c := range fl.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, callee := range c.Targets(impls) {
				for cls := range trans[callee] {
					for _, h := range c.Held {
						addEdge(h, cls, c.Pos)
					}
				}
			}
		}
	}

	reportCycles(fp, edges)
	return nil
}

// Targets expands the call site to its possible callees: the static
// callee, or for an interface call every implementation in impls.
func (c CallSite) Targets(impls map[string][]string) []string {
	if !c.Iface {
		return []string{c.Callee}
	}
	return impls[c.Callee]
}

// transitiveAcquires computes, per function, every lock class it can
// acquire directly or through its callees (fixpoint over the call
// graph, interface calls fanned out to all implementations).
func transitiveAcquires(funcs map[string]*FuncLocks, impls map[string][]string) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(funcs))
	for id, fl := range funcs {
		set := make(map[string]bool)
		for _, a := range fl.Acquires {
			set[a.Class] = true
		}
		out[id] = set
	}
	for changed := true; changed; {
		changed = false
		for id, fl := range funcs {
			set := out[id]
			for _, c := range fl.Calls {
				for _, callee := range c.Targets(impls) {
					for cls := range out[callee] {
						if !set[cls] {
							set[cls] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return out
}

// reportCycles finds strongly connected components of the edge graph
// and reports one canonical cycle per component: starting from the
// lexicographically smallest class, the shortest path back to itself.
func reportCycles(fp *analysis.FinishPass, edges map[[2]string]token.Position) {
	adj := make(map[string][]string)
	nodes := map[string]bool{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	for _, outs := range adj {
		sort.Strings(outs)
	}

	for _, scc := range tarjan(nodes, adj) {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		sort.Strings(scc)
		start := scc[0]
		cycle := shortestCycle(start, adj, inSCC)
		if cycle == nil {
			continue
		}
		pos := edges[[2]string{cycle[0], cycle[1]}]
		fp.Report(analysis.Diagnostic{
			Pos:      pos,
			Analyzer: fp.Analyzer.Name,
			Message: fmt.Sprintf("potential deadlock: lock order cycle: %s",
				strings.Join(cycle, " -> ")),
		})
	}
}

// shortestCycle BFSes from start back to start inside one SCC and
// returns the node sequence start…start, or nil if none is found.
func shortestCycle(start string, adj map[string][]string, in map[string]bool) []string {
	parent := map[string]string{}
	queue := []string{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if !in[m] {
				continue
			}
			if m == start {
				cycle := []string{start}
				for at := n; at != start; at = parent[at] {
					cycle = append(cycle, at)
				}
				if len(cycle) == 1 {
					return nil // only a self-loop; filtered earlier
				}
				cycle = append(cycle, start)
				// Reverse the middle back into walk order.
				for i, j := 1, len(cycle)-2; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
			if _, seen := parent[m]; !seen && m != start {
				parent[m] = n
				queue = append(queue, m)
			}
		}
	}
	return nil
}

// tarjan returns the strongly connected components of the graph in a
// deterministic order (nodes visited sorted).
func tarjan(nodes map[string]bool, adj map[string][]string) [][]string {
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strong func(n string)
	strong = func(n string) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range adj[n] {
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []string
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range sorted {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}
