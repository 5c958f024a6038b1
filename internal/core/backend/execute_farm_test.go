package backend

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"comtainer/internal/core/model"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// TestExecuteGraphFarmOverlays: a wide farm rebuild, twenty-four
// independent compiles feeding eight links of three objects each, run by
// eight executor workers on two four-slot farm workers. Each link's overlay is
// read from the outputs the executor recorded while other compiles
// still record theirs, so under -race an access to those outputs
// outside their mutex is reported. Every action runs on the farm, and
// every link gets its three objects.
func TestExecuteGraphFarmOverlays(t *testing.T) {
	const links, per = 8, 3
	sys := sysprofile.X86Cluster()
	repo := oci.NewRepository()
	if err := sysprofile.PopulateSystemSide(repo, sys); err != nil {
		t.Fatal(err)
	}
	sysenv, err := repo.LoadByTag(sysprofile.TagSysenv)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sysenv.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	// Seqs interleave each link with its compiles, so links are taken,
	// and read their overlays, while later compiles still run.
	g := model.NewBuildGraph()
	seq := 0
	for l := 0; l < links; l++ {
		linkArgv := []string{"gcc"}
		var objIDs []model.NodeID
		for c := 0; c < per; c++ {
			src := fmt.Sprintf("/w/l%d_u%d.c", l, c)
			obj := fmt.Sprintf("/w/l%d_u%d.o", l, c)
			fs.WriteFile(src, []byte(fmt.Sprintf("int l%d_f%d(void){return %d;}\n", l, c, c)), 0o644)
			s := g.AddSource(src)
			n := g.AddProduct(obj, model.KindObject,
				&model.CompilationModel{Kind: "cc", Argv: []string{"gcc", "-O2", "-c", src, "-o", obj}, Cwd: "/w", Seq: seq},
				[]model.NodeID{s.ID})
			seq++
			objIDs = append(objIDs, n.ID)
			linkArgv = append(linkArgv, obj)
		}
		g.AddProduct(fmt.Sprintf("/w/app%d", l), model.KindExecutable,
			&model.CompilationModel{Kind: "cc", Argv: append(linkArgv, "-o", fmt.Sprintf("/w/app%d", l)), Cwd: "/w", Seq: seq},
			objIDs)
		seq++
	}

	sched := remoteexec.NewScheduler()
	mux := http.NewServeMux()
	mux.Handle(remoteexec.APIPrefix+"/", sched.Handler())
	mux.Handle("/", registry.NewServer().Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	defer workers.Wait()
	defer cancel()
	for i := 0; i < 2; i++ {
		w := remoteexec.NewWorker(ts.URL, sys, sys.Toolchains)
		w.Name, w.Slots = fmt.Sprintf("w%d", i), 4
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = w.Run(ctx)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); len(sched.Status().Workers) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the farm workers did not register in time")
		}
	}

	exec := remoteexec.NewExecutor(ts.URL, sys, sys.Toolchains)
	if err := executeGraph(g, fs, sys.Toolchains, execOptions{workers: 8, remote: exec, lower: sysenv}); err != nil {
		t.Fatal(err)
	}
	if st := exec.Stats(); st.Remote != int64(seq) || st.Local != 0 {
		t.Errorf("executor stats %s, want all %d actions remote", st, seq)
	}
	for l := 0; l < links; l++ {
		data, err := fs.ReadFile(fmt.Sprintf("/w/app%d", l))
		if err != nil {
			t.Fatal(err)
		}
		art, err := toolchain.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(art.Sources) != per {
			t.Errorf("app%d links %d sources, want %d", l, len(art.Sources), per)
		}
	}
}
