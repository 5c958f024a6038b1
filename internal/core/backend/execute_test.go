package backend

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"comtainer/internal/core/adapter"
	"comtainer/internal/core/cache"
	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// wideGraph builds a graph with many independent compiles feeding one
// link — the shape that exercises the parallel executor.
func wideGraph(n int) (*model.BuildGraph, *fsim.FS) {
	g := model.NewBuildGraph()
	fs := fsim.New()
	var objIDs []model.NodeID
	linkArgv := []string{"gcc"}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("/w/u%02d.c", i)
		obj := fmt.Sprintf("/w/u%02d.o", i)
		fs.WriteFile(src, []byte(fmt.Sprintf("int f%d(void){return %d;}\n", i, i)), 0o644)
		s := g.AddSource(src)
		g.AddProduct(obj, model.KindObject,
			&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-O2", "-c", src, "-o", obj}, Cwd: "/w", Seq: i},
			[]model.NodeID{s.ID})
		objIDs = append(objIDs, g.Nodes[len(g.Nodes)-1].ID)
		linkArgv = append(linkArgv, obj)
	}
	linkArgv = append(linkArgv, "-o", "/w/app")
	g.AddProduct("/w/app", model.KindExecutable,
		&model.CompilationModel{Kind: "cc", Argv: linkArgv, Cwd: "/w", Seq: n},
		objIDs)
	return g, fs
}

func TestExecuteGraphParallelWideFanOut(t *testing.T) {
	g, fs := wideGraph(40)
	reg := toolchain.GenericRegistry(toolchain.ISAx86)
	if err := executeGraph(g, fs, reg, execOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/w/app")
	if err != nil {
		t.Fatal(err)
	}
	art, err := toolchain.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Sources) != 40 {
		t.Errorf("linked %d sources, want 40", len(art.Sources))
	}
}

func TestExecuteGraphDeterministicAcrossRuns(t *testing.T) {
	reg := toolchain.GenericRegistry(toolchain.ISAx86)
	run := func() *fsim.FS {
		g, fs := wideGraph(24)
		if err := executeGraph(g, fs, reg, execOptions{}); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Error("parallel execution produced different file systems")
	}
}

func TestExecuteGraphPropagatesErrors(t *testing.T) {
	g := model.NewBuildGraph()
	s := g.AddSource("/w/missing.c")
	g.AddProduct("/w/x.o", model.KindObject,
		&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "/w/missing.c", "-o", "/w/x.o"}, Cwd: "/w", Seq: 0},
		[]model.NodeID{s.ID})
	err := executeGraph(g, fsim.New(), toolchain.GenericRegistry(toolchain.ISAx86), execOptions{})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("err = %v", err)
	}
}

func TestCommandDAGDedupesSharedCommands(t *testing.T) {
	// Two object nodes produced by one `gcc -c a.c b.c` invocation share
	// a Seq; the DAG must hold one command.
	g := model.NewBuildGraph()
	sa := g.AddSource("/w/a.c")
	sb := g.AddSource("/w/b.c")
	cm := &model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "a.c", "b.c"}, Cwd: "/w", Seq: 7}
	g.AddProduct("/w/a.o", model.KindObject, cm, []model.NodeID{sa.ID})
	g.AddProduct("/w/b.o", model.KindObject, cm, []model.NodeID{sb.ID})
	cmds, err := commandDAG(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 || cmds[0].seq != 7 {
		t.Errorf("commands = %+v", cmds)
	}
}

func TestCommandDAGDependencyEdges(t *testing.T) {
	g := model.NewBuildGraph()
	s := g.AddSource("/w/a.c")
	obj := g.AddProduct("/w/a.o", model.KindObject,
		&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "a.c"}, Cwd: "/w", Seq: 0},
		[]model.NodeID{s.ID})
	g.AddProduct("/w/app", model.KindExecutable,
		&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "a.o", "-o", "app"}, Cwd: "/w", Seq: 1},
		[]model.NodeID{obj.ID})
	cmds, err := commandDAG(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 2 {
		t.Fatalf("commands = %d", len(cmds))
	}
	if !cmds[1].deps[0] {
		t.Error("link command missing dependency on compile command")
	}
	if len(cmds[0].deps) != 0 {
		t.Error("compile command has spurious deps")
	}
}

// TestCommandCycleIsRejected: one command (seq 1) writes /w/d.o and
// /w/a.o, another (seq 2) makes /w/c.o from d.o, and a.o is made from
// c.o. The node graph is acyclic — it passes Validate and survives
// model.Unmarshal, so an image can carry it — but its commands form a
// cycle, which commandDAG rejects and executeGraph fails on at once.
func TestCommandCycleIsRejected(t *testing.T) {
	g := model.NewBuildGraph()
	src := g.AddSource("/w/a.c")
	first := &model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "a.c", "c.o"}, Cwd: "/w", Seq: 1}
	d := g.AddProduct("/w/d.o", model.KindObject, first, []model.NodeID{src.ID})
	c := g.AddProduct("/w/c.o", model.KindObject,
		&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "d.o", "-o", "c.o"}, Cwd: "/w", Seq: 2},
		[]model.NodeID{d.ID})
	g.AddProduct("/w/a.o", model.KindObject, first, []model.NodeID{c.ID})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	doc, err := (&model.Models{Graph: g}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Unmarshal(doc); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}

	if cmds, err := commandDAG(g); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("commandDAG = (%d commands, %v), want a cycle error", len(cmds), err)
	}
	fs := fsim.New()
	fs.WriteFile("/w/a.c", []byte("int a(void){return 0;}\n"), 0o644)
	done := make(chan error, 1)
	go func() {
		done <- executeGraph(g, fs, toolchain.GenericRegistry(toolchain.ISAx86), execOptions{workers: 2})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("executeGraph = %v, want a cycle error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("executeGraph hung on a command cycle")
	}
}

// rebuildInputs is what Rebuild hands executeGraph for distTag: the
// adapted build graph and the rebuild container (the Sysenv root plus
// the cached sources).
func rebuildInputs(t *testing.T, repo *oci.Repository, distTag string, sys *sysprofile.System) (*model.BuildGraph, *fsim.FS) {
	t.Helper()
	extDesc, err := repo.Resolve(cache.ExtendedTag(distTag))
	if err != nil {
		t.Fatal(err)
	}
	extImg, err := oci.LoadImage(repo.Store, extDesc)
	if err != nil {
		t.Fatal(err)
	}
	models, srcFS, err := cache.Read(extImg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &adapter.Context{System: sys, Models: models.Clone(), SrcFS: srcFS,
		Report: &adapter.Report{PerAdapter: map[string]int{}}}
	for _, ad := range adapter.DefaultAdapted() {
		if err := ad.Apply(ctx); err != nil {
			t.Fatal(err)
		}
	}
	sysenv, err := repo.LoadByTag(sysprofile.TagSysenv)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sysenv.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	err = srcFS.Walk(func(f *fsim.File) error {
		if f.Type == fsim.TypeRegular {
			fs.Add(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx.Models.Graph, fs
}

// permuteSeqs returns a copy of g whose commands are renumbered by a
// bijection on their seqs drawn from seed; every edge stays.
func permuteSeqs(g *model.BuildGraph, seed int64) *model.BuildGraph {
	pg := g.Clone()
	var seqs []int
	seen := map[int]bool{}
	for _, n := range pg.Nodes {
		if n.Cmd != nil && !seen[n.Cmd.Seq] {
			seen[n.Cmd.Seq] = true
			seqs = append(seqs, n.Cmd.Seq)
		}
	}
	sort.Ints(seqs)
	perm := rand.New(rand.NewSource(seed)).Perm(len(seqs))
	to := make(map[int]int, len(seqs))
	for i, seq := range seqs {
		to[seq] = seqs[perm[i]]
	}
	for _, n := range pg.Nodes {
		if n.Cmd != nil {
			n.Cmd.Seq = to[n.Cmd.Seq]
		}
	}
	return pg
}

// TestSeqPermutationsLeaveOneFS: commandDAG's order follows seq, so
// renumbering a graph's commands (edges unchanged) changes the order
// the workers take them in. Whatever that order and however many
// workers, executeGraph leaves the file system the reference run does.
// The graphs are stressGraph's and each Table-2 app's x86-64 rebuild.
func TestSeqPermutationsLeaveOneFS(t *testing.T) {
	type input struct {
		name string
		g    *model.BuildGraph
		fs   *fsim.FS
		reg  *toolchain.Registry
	}
	g, fs := stressGraph(8, 6, 3)
	inputs := []input{{"stressGraph", g, fs, toolchain.GenericRegistry(toolchain.ISAx86)}}
	sys := sysprofile.X86Cluster()
	for _, app := range workloads.Apps() {
		repo, distTag := setupApp(t, sys, app)
		g, fs := rebuildInputs(t, repo, distTag, sys)
		inputs = append(inputs, input{app.Name, g, fs, sys.Toolchains})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := in.fs.Clone()
			if err := executeGraph(in.g, want, in.reg, execOptions{workers: 1}); err != nil {
				t.Fatal(err)
			}
			orders := map[string]bool{}
			for seed := int64(1); seed <= 8; seed++ {
				pg := permuteSeqs(in.g, seed)
				cmds, err := commandDAG(pg)
				if err != nil {
					t.Fatal(err)
				}
				var order []string
				for _, c := range cmds {
					order = append(order, strings.Join(c.argv, " "))
				}
				orders[strings.Join(order, "\n")] = true
				for _, j := range []int{1, 2, 8} {
					got := in.fs.Clone()
					if err := executeGraph(pg, got, in.reg, execOptions{workers: j}); err != nil {
						t.Fatalf("seed %d, -j %d: %v", seed, j, err)
					}
					if !got.Equal(want) {
						t.Errorf("seed %d, -j %d: the file system differs from the reference run's", seed, j)
					}
				}
			}
			if len(orders) < 2 {
				t.Errorf("8 renumberings gave %d command order(s), want the order to move", len(orders))
			}
		})
	}
}
