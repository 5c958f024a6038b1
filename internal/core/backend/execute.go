package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"comtainer/internal/actioncache"
	"comtainer/internal/cachekit"
	"comtainer/internal/core/model"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
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

// commandDAG projects the node-level build graph onto distinct commands
// and returns them dependencies first: in ascending seq wherever that
// order respects the edges, as it does in every recorded build, and
// otherwise in the order a depth-first walk in ascending seq places
// them. A cycle among commands — which an acyclic node graph can hide,
// when one command's outputs feed another that feeds the first — is an
// error naming a command on it.
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
	placed := make(map[int]bool, len(bySeq)) // false while on the walk's path
	var place func(seq int) error
	place = func(seq int) error {
		switch done, seen := placed[seq]; {
		case seen && !done:
			return fmt.Errorf("backend: build commands form a cycle through command %d (%q)", seq, strings.Join(bySeq[seq].argv, " "))
		case seen:
			return nil
		}
		placed[seq] = false
		for _, dep := range sortedKeys(bySeq[seq].deps) {
			if err := place(dep); err != nil {
				return err
			}
		}
		placed[seq] = true
		out = append(out, bySeq[seq])
		return nil
	}
	for _, seq := range sortedKeys(bySeq) {
		if err := place(seq); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	seqs := make([]int, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
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
	// lower is the image fs was flattened from before the rebuild
	// added to it: a farm session ships its layers as stored, and
	// remote mode needs it.
	lower *oci.Image
}

// prepareSession publishes fs as ex's session: the longest prefix of
// lower's layers that are their own diffIDs — stored as a worker
// decodes them — pushed as lower's store holds them, and one layer of
// what fs holds beyond them.
func prepareSession(ctx context.Context, ex *remoteexec.Executor, lower *oci.Image, fs *fsim.FS) error {
	if lower == nil {
		return errors.New("backend: a farm session needs the image the rebuild container was flattened from")
	}
	var layers []digest.Digest
	for i, d := range lower.Manifest.Layers {
		if !lower.LayerIsDiffID(i) {
			break
		}
		layers = append(layers, d.Digest)
	}
	tree, err := lower.FlattenPrefix(len(layers))
	if err != nil {
		return err
	}
	return ex.PrepareLayers(ctx, lower.Store, layers, fsim.Diff(tree, fs))
}

// closures computes each command's transitive dependency set, in
// ascending seq — the seqs whose outputs a farm worker must overlay on
// the session's base before executing it — in one pass over commandDAG's
// order, which places every dependency before its dependents.
func closures(cmds []*command) map[int][]int {
	sets := make(map[int]map[int]bool, len(cmds))
	out := make(map[int][]int, len(cmds))
	for _, c := range cmds {
		s := map[int]bool{}
		for dep := range c.deps {
			s[dep] = true
			for d := range sets[dep] {
				s[d] = true
			}
		}
		sets[c.seq] = s
		out[c.seq] = sortedKeys(s)
	}
	return out
}

func (o execOptions) workerCount(cmds int) int {
	w := o.workers
	if w <= 0 {
		w = min(runtime.GOMAXPROCS(0), 8)
	}
	return min(w, cmds)
}

// executeGraph re-runs every product-generating command of the build
// graph on workerCount long-lived workers. Each takes the next command
// in commandDAG's order, waits until its dependencies are done, and
// runs it — or skips it once any command has failed. A worker only
// ever waits on commands taken before its own, so the pool cannot
// deadlock. Outputs are disjoint per command, so the resulting file
// system is the same whatever order commands finish in, and the error
// returned is the first in command order.
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
	// for the dependency overlays) and the session's file system pushed
	// up front: the lower layers as stored, and one session layer of
	// what fs holds beyond them. A farm whose tasks demand another
	// toolchain than reg would hand back that toolchain's binaries, so
	// it is offered nothing; a failed push disables the farm for this
	// rebuild — never the rebuild itself.
	if opts.remote != nil && opts.remote.Platform.Toolchains != reg.Fingerprint() {
		opts.remote = nil
	}
	var depClosure map[int][]int
	//comtainer:allow ctxflow -- Rebuild is a ctx-free API, so the farm's one root context is minted here; the executor bounds every use of it by DefaultExecTimeout
	ctx := context.Background()
	if opts.remote != nil {
		if opts.memo == nil {
			opts.memo = actioncache.NewMemoizer(nil)
		}
		if err := prepareSession(ctx, opts.remote, opts.lower, fs); err != nil {
			opts.remote = nil
		} else {
			depClosure = closures(cmds)
		}
	}

	var (
		mu sync.Mutex
		// outs is each finished command's recorded outputs, the
		// material of farm overlays. Guarded by mu; a command's entry
		// is complete before its done channel closes.
		outs = make(map[int][]actioncache.Output)
		done = make(map[int]chan struct{}, len(cmds))
	)
	for _, c := range cmds {
		done[c.seq] = make(chan struct{})
	}
	run := func(c *command) error {
		runner := toolchain.NewRunner(fs, reg)
		runner.Memo = opts.memo
		if opts.remote != nil {
			// The overlay: every transitive dependency's outputs, in
			// seq order; all of them are done by now.
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

	queue := make(chan int, len(cmds))
	for i := range cmds {
		queue <- i
	}
	close(queue)
	errs := make([]error, len(cmds))
	var failed atomic.Bool
	_ = cachekit.Parallel(opts.workerCount(len(cmds)), 0, func(int) error {
		for i := range queue {
			c := cmds[i]
			for dep := range c.deps {
				<-done[dep]
			}
			if !failed.Load() {
				if errs[i] = run(c); errs[i] != nil {
					failed.Store(true)
				}
			}
			close(done[c.seq])
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
