package backend

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"comtainer/internal/actioncache"
	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/remoteexec"
	"comtainer/internal/toolchain"
)

// command is one distinct build invocation (nodes sharing a Seq collapse
// into one command) with its dependency edges to other commands.
type command struct {
	seq  int
	argv []string
	cwd  string
	deps map[int]bool // seqs that must complete first
}

// commandDAG projects the node-level build graph onto distinct commands.
func commandDAG(g *model.BuildGraph) ([]*command, error) {
	bySeq := map[int]*command{}
	for _, n := range g.Nodes {
		if n.Cmd == nil {
			continue
		}
		c, ok := bySeq[n.Cmd.Seq]
		if !ok {
			c = &command{seq: n.Cmd.Seq, argv: n.Cmd.Argv, cwd: n.Cmd.Cwd, deps: map[int]bool{}}
			bySeq[n.Cmd.Seq] = c
		}
		for _, depID := range n.Deps {
			dep, ok := g.Node(depID)
			if !ok {
				return nil, fmt.Errorf("backend: node %s references missing dep %d", n.Path, depID)
			}
			if dep.Cmd != nil && dep.Cmd.Seq != n.Cmd.Seq {
				c.deps[dep.Cmd.Seq] = true
			}
		}
	}
	out := make([]*command, 0, len(bySeq))
	for _, c := range bySeq {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// execOptions tunes executeGraph.
type execOptions struct {
	// workers bounds concurrent commands; <= 0 selects
	// min(GOMAXPROCS, 8), the old hardcoded cap.
	workers int
	// memo, when set, replays commands from the action cache.
	memo *actioncache.Memoizer
	// remote, when set, offers cache-missed commands to the build
	// farm; every farm failure falls back to local execution.
	remote *remoteexec.Executor
}

// closures computes each command's transitive dependency set — the
// seqs whose outputs a farm worker must overlay on the base tree
// before executing it. The graph is already verified acyclic.
func closures(cmds []*command) map[int][]int {
	bySeq := make(map[int]*command, len(cmds))
	for _, c := range cmds {
		bySeq[c.seq] = c
	}
	memo := make(map[int]map[int]bool, len(cmds))
	var cl func(int) map[int]bool
	cl = func(seq int) map[int]bool {
		if s, ok := memo[seq]; ok {
			return s
		}
		s := map[int]bool{}
		memo[seq] = s
		for dep := range bySeq[seq].deps {
			s[dep] = true
			for d := range cl(dep) {
				s[d] = true
			}
		}
		return s
	}
	out := make(map[int][]int, len(cmds))
	for _, c := range cmds {
		seqs := make([]int, 0, len(cl(c.seq)))
		for d := range cl(c.seq) {
			seqs = append(seqs, d)
		}
		sort.Ints(seqs)
		out[c.seq] = seqs
	}
	return out
}

func (o execOptions) workerCount(cmds int) int {
	w := o.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	if w > cmds {
		w = cmds
	}
	return w
}

// executeGraph re-runs every product-generating command of the build
// graph. Scheduling is counter-based: each command tracks how many of
// its dependencies are still outstanding and joins the ready queue the
// moment the count hits zero, so a long-pole command never holds back
// unrelated work the way the previous level-synchronized front did.
// Outputs are disjoint per command, so the resulting file system state
// is deterministic regardless of scheduling order.
func executeGraph(g *model.BuildGraph, fs *fsim.FS, reg *toolchain.Registry, opts execOptions) error {
	if _, err := g.Topo(); err != nil {
		return err
	}
	cmds, err := commandDAG(g)
	if err != nil {
		return err
	}
	if len(cmds) == 0 {
		return nil
	}

	// Remote mode needs a memoizer (it records each command's outputs
	// for the dependency overlays) and the session's base tree pushed
	// up front. A failed push disables the farm for this rebuild —
	// never the rebuild itself.
	var depClosure map[int][]int
	//comtainer:allow ctxflow -- Rebuild is a ctx-free API, so the farm's one root context is minted here; the executor bounds every use of it by DefaultExecTimeout
	ctx := context.Background()
	if opts.remote != nil {
		if opts.memo == nil {
			opts.memo = actioncache.NewMemoizer(nil)
		}
		if err := opts.remote.PrepareContext(ctx, fs); err != nil {
			opts.remote = nil
		} else {
			depClosure = closures(cmds)
		}
	}

	// Invert the dependency edges into indegree counters + dependents
	// lists; both are only touched under mu after this.
	indeg := make(map[int]int, len(cmds))
	dependents := make(map[int][]*command)
	for _, c := range cmds {
		indeg[c.seq] = len(c.deps)
		for dep := range c.deps {
			dependents[dep] = append(dependents[dep], c)
		}
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     []*command
		running   int
		remaining = len(cmds)
		firstErr  error
		// outs is each finished command's recorded outputs, the
		// material of farm overlays. Guarded by mu; a command's
		// entry is complete before any dependent becomes ready.
		outs map[int][]actioncache.Output
	)
	if opts.remote != nil {
		outs = make(map[int][]actioncache.Output, len(cmds))
	}
	for _, c := range cmds {
		if indeg[c.seq] == 0 {
			ready = append(ready, c)
		}
	}

	run := func(c *command) error {
		runner := toolchain.NewRunner(fs, reg)
		runner.Memo = opts.memo
		if opts.remote != nil {
			// The overlay: every transitive dependency's outputs, in
			// seq order. Dependencies are terminal by the time c is
			// scheduled, so reading outs here is race-free.
			var overlay []actioncache.Output
			mu.Lock()
			for _, dep := range depClosure[c.seq] {
				overlay = append(overlay, outs[dep]...)
			}
			mu.Unlock()
			runner.Remote = func(argv []string, cwd string) (*actioncache.Result, error) {
				return opts.remote.ExecuteContext(ctx, argv, cwd, overlay)
			}
		}
		if err := fs.MkdirAll(c.cwd, 0o755); err != nil {
			return fmt.Errorf("backend: creating cwd for %q: %w", strings.Join(c.argv, " "), err)
		}
		runner.Cwd = fsim.Clean(c.cwd)
		if err := runner.Run(c.argv); err != nil {
			return fmt.Errorf("backend: re-executing %q: %w", strings.Join(c.argv, " "), err)
		}
		if opts.remote != nil && runner.LastResult != nil {
			mu.Lock()
			outs[c.seq] = runner.LastResult.Outputs
			mu.Unlock()
		}
		return nil
	}

	var wg sync.WaitGroup
	for i := 0; i < opts.workerCount(len(cmds)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && running > 0 && remaining > 0 && firstErr == nil {
					cond.Wait()
				}
				if firstErr != nil || remaining == 0 || len(ready) == 0 {
					// Done, failed, or deadlocked (ready empty with
					// nothing running) — either way this worker is
					// finished; wake the rest so they exit too.
					cond.Broadcast()
					mu.Unlock()
					return
				}
				// Pop the lowest seq for a stable, log-friendly order.
				idx := 0
				for i, c := range ready {
					if c.seq < ready[idx].seq {
						idx = i
					}
				}
				c := ready[idx]
				ready = append(ready[:idx], ready[idx+1:]...)
				running++
				mu.Unlock()

				err := run(c)

				mu.Lock()
				running--
				remaining--
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					for _, d := range dependents[c.seq] {
						indeg[d.seq]--
						if indeg[d.seq] == 0 {
							ready = append(ready, d)
						}
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if remaining > 0 {
		return fmt.Errorf("backend: build graph commands deadlocked (%d unrunnable)", remaining)
	}
	return nil
}
