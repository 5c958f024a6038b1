package cfg

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// This file is the lockset layer: a forward "must-hold" dataflow over
// the CFG computing, at every node, the set of lock classes that are
// definitely held when the node executes — the one answer to "which
// locks are held here" that lockio, lockorder and guardedby all read.
//
// The lattice is the powerset of lock classes ordered by ⊇: the top
// element is "all classes held" (the optimistic value of unvisited
// blocks), the entry fact is the empty set (a function's caller may
// hold anything, but nothing is *definitely* held without evidence),
// and the join at a control-flow merge is set intersection — a lock is
// held after the merge only when it is held on every incoming edge.
// Acquisitions add a class, releases remove it, and the iteration runs
// to fixpoint, so locks acquired in loop headers and released across
// back edges converge to their weakest (smallest) sound set.
//
// Deferred releases are the reason the analysis runs over this CFG and
// not over source order: `defer mu.Unlock()` keeps mu held on every
// path from the defer statement to the function return, and the
// builder records the deferred call expressions in the synthetic exit
// block (LIFO). ComputeLockSets therefore ignores DeferStmt nodes
// where they are registered — the release takes effect only when the
// exit block's nodes are interpreted — which is exactly the must-hold
// semantics: a field access after `defer mu.Unlock()` still runs under
// mu.

// LockOp is one lock-state effect of a CFG node, produced by the
// caller-supplied classifier: an acquisition or release of a named
// lock class.
type LockOp struct {
	// Class is the repository-wide lock-class identity (see
	// analysis.LockClass); classifiers must never emit "".
	Class string
	// Acquire is true for Lock/RLock (and calls whose summary says a
	// class is still held at return), false for Unlock/RUnlock (and
	// calls into unlock helpers).
	Acquire bool
}

// LockSets is the result of the must-hold dataflow over one CFG: for
// every block and node index, the set of lock classes definitely held
// just before the node executes.
type LockSets struct {
	g *CFG
	// in maps each block to its entry fact. nil means the block was
	// never reached by the iteration (statically dead): its fact is
	// top, and Held reports every class seen anywhere as held — the
	// standard convention that keeps dead code from diluting merges.
	in map[*Block]map[string]bool
	// ops memoizes the classifier's answer per block, per node.
	ops map[*Block][][]LockOp
	// classes collects every class any op mentions, for the top value.
	classes map[string]bool
}

// ComputeLockSets runs the forward must-hold dataflow over g. The
// classify callback maps one CFG node to its lock-state effects in
// evaluation order; it is consulted once per node and must be
// deterministic. DeferStmt nodes are never classified (their calls
// take effect in the exit block — see the file comment); classifiers
// inspecting node subtrees must not descend into *ast.FuncLit bodies,
// which execute elsewhere.
func ComputeLockSets(g *CFG, classify func(n ast.Node) []LockOp) *LockSets {
	ls := &LockSets{
		g:       g,
		in:      make(map[*Block]map[string]bool, len(g.Blocks)),
		ops:     make(map[*Block][][]LockOp, len(g.Blocks)),
		classes: make(map[string]bool),
	}
	for _, blk := range g.Blocks {
		perNode := make([][]LockOp, len(blk.Nodes))
		for i, n := range blk.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				continue // releases at exit, not at registration
			}
			perNode[i] = classify(n)
			for _, op := range perNode[i] {
				ls.classes[op.Class] = true
			}
		}
		ls.ops[blk] = perNode
	}

	// Worklist iteration. The entry starts at bottom (empty set); every
	// other block starts at top (absent from `in`). Because the lattice
	// is finite and transfer functions are monotone, this terminates.
	ls.in[g.Entry] = map[string]bool{}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := ls.transfer(blk, ls.in[blk])
		for _, s := range blk.Succs {
			if ls.merge(s, out) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return ls
}

// transfer applies blk's ops to a copy of the entry fact and returns
// the exit fact.
func (ls *LockSets) transfer(blk *Block, in map[string]bool) map[string]bool {
	cur := copySet(in)
	for _, ops := range ls.ops[blk] {
		applyOps(cur, ops)
	}
	return cur
}

// merge intersects out into blk's entry fact, reporting whether the
// fact changed (first arrival always changes: top ∩ out = out).
func (ls *LockSets) merge(blk *Block, out map[string]bool) bool {
	old, seen := ls.in[blk]
	if !seen {
		ls.in[blk] = copySet(out)
		return true
	}
	changed := false
	for c := range old {
		if !out[c] {
			delete(old, c)
			changed = true
		}
	}
	return changed
}

// Held returns the sorted set of lock classes definitely held just
// before node index i of block blk executes. For the synthetic exit
// block, i indexes the LIFO deferred calls, so Held(exit, 0) is the
// set at return before any deferred release has run.
func (ls *LockSets) Held(blk *Block, i int) []string {
	in, seen := ls.in[blk]
	if !seen {
		// Unreachable block: top. Report every known class so dead
		// code never produces "lock not held" evidence.
		return sortedKeys(ls.classes)
	}
	cur := copySet(in)
	for j := 0; j < i && j < len(ls.ops[blk]); j++ {
		applyOps(cur, ls.ops[blk][j])
	}
	return sortedKeys(cur)
}

// Walk calls fn for every node the function can execute, in block
// order, with the sorted set of classes definitely held just before
// it. Statically dead blocks are skipped, and so are DeferStmt
// registrations: a deferred call is visited where it runs, in the exit
// block, under the locks held at return (minus what later-registered
// defers already released).
func (ls *LockSets) Walk(fn func(n ast.Node, held []string)) {
	for _, blk := range ls.g.Blocks {
		in, live := ls.in[blk]
		if !live {
			continue
		}
		cur := copySet(in)
		for i, n := range blk.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); !isDefer {
				fn(n, sortedKeys(cur))
			}
			applyOps(cur, ls.ops[blk][i])
		}
	}
}

// Holds reports whether class is definitely held just before node i of
// block blk.
func (ls *LockSets) Holds(blk *Block, i int, class string) bool {
	for _, c := range ls.Held(blk, i) {
		if c == class {
			return true
		}
	}
	return false
}

// AtExit returns the sorted set of classes still held when the
// function returns, after every deferred release recorded in the exit
// block has run — the "Leaves" summary of a lock() helper.
func (ls *LockSets) AtExit() []string {
	in, seen := ls.in[ls.g.Exit]
	if !seen {
		return nil // the function never returns
	}
	cur := copySet(in)
	for _, ops := range ls.ops[ls.g.Exit] {
		applyOps(cur, ops)
	}
	return sortedKeys(cur)
}

// Dump renders the lockset at every node in the same block order as
// CFG.Dump, each node prefixed with the classes held before it — the
// format the golden-file tests pin:
//
//	func name
//	  b0 entry
//	      {} mu.Lock()
//	      {p.mu} n++
//	  b1 exit
//	      {p.mu} mu.Unlock()
func (ls *LockSets) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s\n", ls.g.Name)
	emit := func(blk *Block) {
		fmt.Fprintf(&b, "  b%d %s\n", blk.Index, blk.Kind)
		for i, n := range blk.Nodes {
			fmt.Fprintf(&b, "      {%s} %s\n", strings.Join(ls.Held(blk, i), ","), nodeText(n))
		}
	}
	for _, blk := range ls.g.Blocks {
		if blk == ls.g.Exit {
			continue
		}
		emit(blk)
	}
	emit(ls.g.Exit)
	return b.String()
}

func applyOps(set map[string]bool, ops []LockOp) {
	for _, op := range ops {
		if op.Acquire {
			set[op.Class] = true
		} else {
			delete(set, op.Class)
		}
	}
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		if v {
			out[k] = v
		}
	}
	return out
}

func sortedKeys(s map[string]bool) []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
