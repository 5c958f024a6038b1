package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/chrun"
	"comtainer/internal/containerfile"
	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/core/backend"
	"comtainer/internal/core/cache"
	"comtainer/internal/core/frontend"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
	"comtainer/internal/workloads"
)

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"publish", "pull", "adapt-cold", "adapt-warm", "adapt-farm"}

// env is what one set-up instance gives its workload.
type env struct {
	name   string // the workload's
	corpus *corpus
	seed   int64
	// nproc is the client's transfer workers, the rebuild's workers and
	// the farm's worker count: the generator never asks for more
	// concurrency than the machine has.
	nproc int
	dir   string  // scratch directory of this instance
	tr    *tracer // nil for the plain (untraced) instance
}

// workload is one of the five closed-loop workloads: one client, one
// op in flight.
type workload interface {
	// setup builds what every round shares: servers, pre-loaded
	// stores, filled caches.
	setup(ctx context.Context) error
	// newRound creates round k's fresh state, outside the window.
	newRound(ctx context.Context, k int) (round, error)
	close(ctx context.Context)
}

// round is one pass over the corpus against fresh state.
type round interface {
	// op runs one operation on im: the façade call on a plain
	// instance, the same public calls with a span around each on a
	// traced one.
	op(ctx context.Context, im *image) error
	// finish runs after the window. It returns the bytes the round
	// added to its destination and what the oracle found.
	finish(ctx context.Context) (bytes int64, fails []failure)
	// digests is what each op produced, for comparing a plain round
	// with the traced round over the same inputs.
	digests() map[string]digest.Digest
	close(ctx context.Context)
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "publish":
		return &publish{e: e}, nil
	case "pull":
		return &pull{e: e}, nil
	case "adapt-cold":
		return &adaptWorkload{e: e, mode: cold}, nil
	case "adapt-warm":
		return &adaptWorkload{e: e, mode: warm}, nil
	case "adapt-farm":
		return &adaptWorkload{e: e, mode: farmed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// --- publish ---

// publish is the user side and the write path of the distribution
// stack: build a round-unique copy of the application on the round's
// fresh user side, then push its extended image through the fleet.
// The fleet persists across rounds, so base layers are already there
// and only the application's own layers are new bytes.
type publish struct {
	e     *env
	fleet *registryFleet
	bytes int64 // leader bytes as of the last finished round
}

func (p *publish) setup(ctx context.Context) error {
	var err error
	p.fleet, err = startFleet(ctx, filepath.Join(p.e.dir, "fleet"), p.e.tr)
	return err
}

func (p *publish) close(ctx context.Context) {
	if p.fleet != nil {
		p.fleet.close(ctx)
	}
}

func (p *publish) newRound(_ context.Context, k int) (round, error) {
	t0 := time.Now()
	user, err := core.NewUserSide(p.e.corpus.sys.ISA)
	if err != nil {
		return nil, err
	}
	if p.e.tr != nil {
		p.e.tr.observe("sysprofile.populate", time.Since(t0))
	}
	return &publishRound{p: p, k: k, user: user, client: p.fleet.client(p.e.nproc, p.e.tr), pushed: map[string]pushed{}}, nil
}

type pushed struct {
	repoName string
	manifest digest.Digest
}

type publishRound struct {
	p      *publish
	k      int
	user   *core.UserSide
	client *registry.Client
	pushed map[string]pushed
}

func (r *publishRound) op(ctx context.Context, im *image) error {
	app := *im.app
	app.Name = fmt.Sprintf("%s-s%dr%d", im.app.Name, r.p.e.seed, r.k)
	var res core.BuildResult
	var err error
	if tr := r.p.e.tr; tr == nil {
		if res, err = r.user.BuildExtended(&app); err != nil {
			return fmt.Errorf("build: %w", err)
		}
		err = r.client.Push(ctx, r.user.Repo, res.ExtendedTag, app.Name, "v1")
	} else {
		if res, err = r.buildDecomposed(&app); err != nil {
			return fmt.Errorf("build: %w", err)
		}
		end := tr.start("distrib.push")
		err = r.client.Push(ctx, r.user.Repo, res.ExtendedTag, app.Name, "v1")
		end()
	}
	if err != nil {
		return fmt.Errorf("push: %w", err)
	}
	desc, err := r.user.Repo.Resolve(res.ExtendedTag)
	if err != nil {
		return err
	}
	r.pushed[im.name()] = pushed{repoName: app.Name, manifest: desc.Digest}
	return nil
}

// buildDecomposed makes the calls core.UserSide.BuildContainerfile
// makes, with a span around each.
func (r *publishRound) buildDecomposed(app *workloads.App) (core.BuildResult, error) {
	tr, u := r.p.e.tr, r.user
	ctx := fsim.New()
	for name, content := range app.Sources(u.ISA) {
		ctx.WriteFile("/src/"+name, []byte(content), 0o644)
	}
	if app.UseMake {
		ctx.WriteFile("/src/Makefile", []byte(app.Makefile(u.ISA)), 0o644)
	}
	for name, data := range app.Data() {
		ctx.WriteFile("/data/"+name, data, 0o644)
	}
	hits0, misses0 := u.BuildCache.Stats()

	end := tr.start("containerfile.parse")
	cf, err := containerfile.Parse(app.Containerfile(u.ISA, true))
	end()
	if err != nil {
		return core.BuildResult{}, err
	}
	builder := &containerfile.Builder{
		Repo: u.Repo, Context: ctx, Registry: u.Registry, AptIndex: u.AptIndex,
		Recorder: hijack.NewRecorder(), Cache: u.BuildCache,
	}
	res := core.BuildResult{BuildTag: app.Name + ".build", DistTag: app.Name + ".dist"}
	end = tr.start("containerfile.build")
	buildDesc, err := builder.Build(cf, "build")
	if err == nil {
		u.Repo.Tag(res.BuildTag, buildDesc)
		var distDesc oci.Descriptor
		if distDesc, err = builder.Build(cf, "dist"); err == nil {
			u.Repo.Tag(res.DistTag, distDesc)
		}
	}
	end()
	if err != nil {
		return core.BuildResult{}, err
	}
	hits, misses := u.BuildCache.Stats()
	tr.count("containerfile.hits", float64(hits-hits0))
	tr.count("containerfile.lookups", float64(hits-hits0+misses-misses0))

	end = tr.start("frontend.analyze")
	buildImg, err := u.Repo.LoadByTag(res.BuildTag)
	var distImg *oci.Image
	if err == nil {
		distImg, err = u.Repo.LoadByTag(res.DistTag)
	}
	if err != nil {
		end()
		return core.BuildResult{}, err
	}
	models, buildFS, err := frontend.Analyze(buildImg, distImg)
	end()
	if err != nil {
		return core.BuildResult{}, err
	}
	end = tr.start("cache.extend")
	ext, err := cache.ExtendWith(u.Repo, res.DistTag, models, buildFS, cache.Options{})
	end()
	if err != nil {
		return core.BuildResult{}, err
	}
	if n, err := cache.CacheLayerSize(u.Repo, ext); err == nil {
		tr.count("cache.layer_bytes", float64(n))
	}
	res.ExtendedTag = cache.ExtendedTag(res.DistTag)
	return res, nil
}

// finish checks every push end to end: the image pulled back through
// the proxy is the one built (manifest digest, every blob's content),
// and every blob is also on the follower of the shard that owns it.
func (r *publishRound) finish(ctx context.Context) (int64, []failure) {
	after := r.p.fleet.leaderBytes()
	added := after - r.p.bytes
	r.p.bytes = after

	var fails []failure
	check := r.p.fleet.client(r.p.e.nproc, nil)
	back := oci.NewRepository()
	for name, pu := range r.pushed {
		if err := check.Pull(ctx, back, pu.repoName, "v1", name); err != nil {
			fails = append(fails, failure{name, "pull-back", err.Error()})
			continue
		}
		fails = append(fails, checkPulled(back, name, name, pu.manifest)...)
		m, err := oci.LoadManifest(back.Store, pu.manifest)
		if err != nil {
			continue // already reported by checkPulled
		}
		for _, d := range append([]oci.Descriptor{m.Config}, m.Layers...) {
			owner := r.p.fleet.proxy.Ring().Owner(d.Digest)
			if !r.p.fleet.followers[owner].disk.Has(d.Digest) {
				fails = append(fails, failure{name, "replication", fmt.Sprintf("%s missing on %s's follower", d.Digest.Short(), owner)})
			}
		}
	}
	return added, fails
}

func (r *publishRound) digests() map[string]digest.Digest {
	out := map[string]digest.Digest{}
	for name, pu := range r.pushed {
		out[name] = pu.manifest
	}
	return out
}

func (r *publishRound) close(context.Context) {}

// --- pull ---

// pull is the read path of the layers publish writes through: one
// image per op from the pre-loaded fleet into the round's fresh
// repository. Nothing is built, unpacked or rebuilt.
type pull struct {
	e     *env
	fleet *registryFleet
}

func (p *pull) setup(ctx context.Context) error {
	var err error
	if p.fleet, err = startFleet(ctx, filepath.Join(p.e.dir, "fleet"), p.e.tr); err != nil {
		return err
	}
	load := p.fleet.client(p.e.nproc, nil)
	for _, im := range p.e.corpus.images {
		if err := load.Push(ctx, p.e.corpus.user.Repo, im.res.ExtendedTag, im.name(), "v1"); err != nil {
			return fmt.Errorf("pre-loading %s: %w", im.name(), err)
		}
	}
	return nil
}

func (p *pull) close(ctx context.Context) {
	if p.fleet != nil {
		p.fleet.close(ctx)
	}
}

func (p *pull) newRound(context.Context, int) (round, error) {
	return &pullRound{p: p, dst: oci.NewRepository(), client: p.fleet.client(p.e.nproc, p.e.tr)}, nil
}

type pullRound struct {
	p      *pull
	dst    *oci.Repository
	client *registry.Client
	pulled []*image
}

func (r *pullRound) op(ctx context.Context, im *image) error {
	end := func() {}
	if r.p.e.tr != nil {
		end = r.p.e.tr.start("distrib.pull")
	}
	err := r.client.Pull(ctx, r.dst, im.name(), "v1", im.name())
	end()
	if err != nil {
		return fmt.Errorf("pull: %w", err)
	}
	r.pulled = append(r.pulled, im)
	return nil
}

func (r *pullRound) finish(context.Context) (int64, []failure) {
	var fails []failure
	for _, im := range r.pulled {
		fails = append(fails, checkPulled(r.dst, im.name(), im.name(), im.manifest)...)
	}
	return r.dst.Store.TotalSize(), fails
}

func (r *pullRound) digests() map[string]digest.Digest {
	out := map[string]digest.Digest{}
	for _, im := range r.pulled {
		if desc, err := r.dst.Resolve(im.name()); err == nil {
			out[im.name()] = desc.Digest
		}
	}
	return out
}

func (r *pullRound) close(context.Context) {}

// --- adapt-cold, adapt-warm, adapt-farm ---

type adaptMode int

const (
	// cold: a per-round empty disk action cache; every action executes
	// and is written to the cache.
	cold adaptMode = iota
	// warm: a disk action cache filled in set-up; every action is a
	// cache read, nothing executes.
	warm
	// farmed: no action cache; every action goes to the build farm.
	farmed
)

// adaptWorkload is system-side time-to-adapted-image: pull in process,
// rebuild, redirect, run. No HTTP except, on the farm, the
// remote-execution protocol.
type adaptWorkload struct {
	e    *env
	mode adaptMode
	// filled is the warm mode's shared cache.
	filled *actioncache.DiskCache
}

func (w *adaptWorkload) setup(ctx context.Context) error {
	if w.e.corpus.refs == nil {
		if err := w.e.corpus.adaptReferences(ctx); err != nil {
			return err
		}
	}
	if w.mode != warm {
		return nil
	}
	var err error
	if w.filled, err = actioncache.NewDiskCache(filepath.Join(w.e.dir, "actioncache"), 0); err != nil {
		return err
	}
	for _, im := range w.e.corpus.images {
		system, err := core.NewSystemSide(w.e.corpus.sys)
		if err != nil {
			return err
		}
		system.RebuildWorkers = w.e.nproc
		system.ActionMemo = actioncache.NewMemoizer(w.filled)
		if _, err := adapt(ctx, w.e.corpus, system, im); err != nil {
			return fmt.Errorf("filling the action cache with %s: %w", im.name(), err)
		}
	}
	return nil
}

func (w *adaptWorkload) close(context.Context) {}

// adaptState is one op's pre-created state.
type adaptState struct {
	system *core.SystemSide
	before int64 // store bytes before the op
	got    adapted
	done   bool
}

func (w *adaptWorkload) newRound(ctx context.Context, k int) (round, error) {
	r := &adaptRound{w: w, states: map[string]*adaptState{}}
	var tier actioncache.Cache
	switch w.mode {
	case cold:
		r.cacheDir = filepath.Join(w.e.dir, fmt.Sprintf("actioncache-r%d", k))
		disk, err := actioncache.NewDiskCache(r.cacheDir, 0)
		if err != nil {
			return nil, err
		}
		tier = disk
	case warm:
		tier = w.filled
	case farmed:
		var err error
		if r.farm, err = startFarm(ctx, w.e.corpus.sys, w.e.nproc, w.e.tr); err != nil {
			return nil, err
		}
	}
	if tier != nil && w.e.tr != nil {
		tier = &tracedCache{inner: tier, tr: w.e.tr}
	}
	for _, im := range w.e.corpus.images {
		t0 := time.Now()
		system, err := core.NewSystemSide(w.e.corpus.sys)
		if err != nil {
			r.close(ctx)
			return nil, err
		}
		if w.e.tr != nil {
			w.e.tr.observe("sysprofile.populate", time.Since(t0))
		}
		system.RebuildWorkers = w.e.nproc
		if tier != nil {
			system.ActionMemo = actioncache.NewMemoizer(tier)
		}
		if r.farm != nil {
			system.RemoteExec = remoteexec.NewExecutor(r.farm.front.url, w.e.corpus.sys, w.e.corpus.sys.Toolchains)
			system.RemoteExec.Client.Workers = w.e.nproc
		}
		r.states[im.name()] = &adaptState{system: system, before: system.Repo.Store.TotalSize()}
	}
	return r, nil
}

type adaptRound struct {
	w        *adaptWorkload
	states   map[string]*adaptState
	cacheDir string
	farm     *farm
	fails    []failure
}

func (r *adaptRound) op(ctx context.Context, im *image) error {
	st := r.states[im.name()]
	var err error
	if tr := r.w.e.tr; tr == nil {
		st.got, err = adapt(ctx, r.w.e.corpus, st.system, im)
	} else {
		st.got, err = r.adaptDecomposed(ctx, st.system, im)
		ms := st.system.ActionMemo.Stats()
		tr.count("actioncache.hits", float64(ms.Hits))
		tr.count("actioncache.misses", float64(ms.Misses))
		tr.count("actioncache.deduped", float64(ms.Deduped))
		if ex := st.system.RemoteExec; ex != nil {
			es := ex.Stats()
			tr.count("remoteexec.remote", float64(es.Remote))
			tr.count("remoteexec.local", float64(es.Local))
			tr.count("remoteexec.errors", float64(es.Errors))
		}
	}
	if err != nil {
		return err
	}
	st.done = true
	// A farm op that ran anything locally did not measure the farm.
	if ex := st.system.RemoteExec; ex != nil {
		if es := ex.Stats(); es.Remote == 0 || es.Errors > 0 {
			r.fails = append(r.fails, failure{im.name(), "farm", es.String()})
		}
	}
	return nil
}

// adaptDecomposed makes the calls core.SystemSide.{Pull, Rebuild,
// Redirect, Run} make, with a span around each.
func (r *adaptRound) adaptDecomposed(ctx context.Context, s *core.SystemSide, im *image) (adapted, error) {
	tr, c := r.w.e.tr, r.w.e.corpus
	var out adapted
	if err := ctx.Err(); err != nil {
		return out, err
	}

	end := tr.start("oci.pull_local")
	desc, err := c.user.Repo.Resolve(im.res.ExtendedTag)
	if err == nil {
		err = s.Repo.PushImage(c.user.Repo.Store, desc, im.res.ExtendedTag)
	}
	end()
	if err != nil {
		return out, fmt.Errorf("pull: %w", err)
	}

	end = tr.start("backend.rebuild")
	//comtainer:allow ctxflow -- the same ctx-free call SystemSide.Rebuild makes; see adapt
	rebuilt, _, err := backend.Rebuild(s.Repo, im.res.DistTag, backend.RebuildOptions{
		System: s.System, Adapters: adapter.DefaultAdapted(),
		Memo: s.ActionMemo, Workers: s.RebuildWorkers, RemoteExec: s.RemoteExec,
	})
	end()
	if err != nil {
		return out, fmt.Errorf("rebuild: %w", err)
	}
	out.rebuilt = rebuilt.Digest

	end = tr.start("backend.redirect")
	rd, err := backend.Redirect(s.Repo, im.res.DistTag, backend.RedirectOptions{System: s.System})
	end()
	if err != nil {
		return out, fmt.Errorf("redirect: %w", err)
	}
	out.redirect = rd.Digest

	if im.ref != nil {
		end = tr.start("chrun.run")
		img, err := s.Repo.LoadByTag(im.res.DistTag + ".redirect")
		var run chrun.Result
		if err == nil {
			run, err = chrun.RunImage(s.System, *im.ref, img, runNodes)
		}
		end()
		if err != nil {
			return out, fmt.Errorf("run: %w", err)
		}
		out.runSeconds = run.Seconds
	}
	return out, nil
}

func (r *adaptRound) finish(context.Context) (int64, []failure) {
	var added int64
	fails := r.fails
	for _, im := range r.w.e.corpus.images {
		st := r.states[im.name()]
		if !st.done {
			continue
		}
		added += st.system.Repo.Store.TotalSize() - st.before
		fails = append(fails, r.w.e.corpus.checkAdapted(im, st.got)...)
	}
	return added, fails
}

func (r *adaptRound) digests() map[string]digest.Digest {
	out := map[string]digest.Digest{}
	for name, st := range r.states {
		if st.done {
			out[name] = st.got.redirect
		}
	}
	return out
}

func (r *adaptRound) close(ctx context.Context) {
	if r.farm != nil {
		r.farm.close(ctx)
		r.farm = nil
	}
	if r.cacheDir != "" {
		_ = os.RemoveAll(r.cacheDir) // scratch; the instance directory is removed at exit anyway
	}
}
