// Package core is the façade over the complete coMtainer workflow
// (paper Figures 4 and 5): the user side builds application images,
// analyzes them and publishes extended images; the system side pulls,
// rebuilds with system adapters, redirects into optimized images, and
// runs them. It also provides the native (non-container) build used as
// the evaluation's reference scheme and the automated PGO feedback loop.
package core

import (
	"fmt"
	"strings"

	"comtainer/internal/actioncache"
	"comtainer/internal/chrun"
	"comtainer/internal/containerfile"
	"comtainer/internal/core/adapter"
	"comtainer/internal/core/backend"
	"comtainer/internal/core/cache"
	"comtainer/internal/core/frontend"
	"comtainer/internal/dpkg"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// UserSide is a user-side build environment for one ISA: a local image
// store populated with the base images, the distribution's package
// repository and the stock toolchain.
type UserSide struct {
	Repo     *oci.Repository
	ISA      string
	AptIndex *dpkg.Index
	Registry *toolchain.Registry
	// BuildCache memoizes instruction layers across this user side's
	// builds, replaying hijacker recordings on hits.
	BuildCache *containerfile.BuildCache
}

// NewUserSide creates a user-side environment for an ISA.
func NewUserSide(isa string) (*UserSide, error) {
	repo := oci.NewRepository()
	if err := sysprofile.PopulateUserSide(repo, isa); err != nil {
		return nil, err
	}
	return &UserSide{
		Repo:       repo,
		ISA:        isa,
		AptIndex:   sysprofile.GenericIndex(isa),
		Registry:   toolchain.GenericRegistry(isa),
		BuildCache: containerfile.NewBuildCache(),
	}, nil
}

// contextFor assembles an app's build context: sources under /src, data
// under /data. The context adopts the buffers the generators made.
func contextFor(app *workloads.App, isa string) *fsim.FS {
	ctx := fsim.New()
	for name, data := range app.SourceFiles(isa) {
		ctx.Add(&fsim.File{Path: "/src/" + name, Mode: 0o644, Data: data})
	}
	if app.UseMake {
		ctx.Add(&fsim.File{Path: "/src/Makefile", Mode: 0o644, Data: []byte(app.Makefile(isa))})
	}
	for name, data := range app.Data() {
		ctx.Add(&fsim.File{Path: "/data/" + name, Mode: 0o644, Data: data})
	}
	return ctx
}

// BuildResult names the images one user-side build produced.
type BuildResult struct {
	BuildTag    string // the build-stage image (toolchain + raw log)
	DistTag     string // the dist-stage application image
	ExtendedTag string // the coMtainer extended image (+coM); empty for conventional builds
}

// BuildOriginal builds the conventional generic image of an app (the
// evaluation's "original" scheme): the stock base image, the default
// toolchain and software stack, no coMtainer involvement.
func (u *UserSide) BuildOriginal(app *workloads.App) (BuildResult, error) {
	return u.buildWith(app, false, cache.Options{})
}

// BuildExtended runs the full user side of the coMtainer workflow: the
// two-stage build on coMtainer's Env/Base images with the hijacker
// recording, then coMtainer-build (front-end analysis + cache layer),
// yielding the extended image.
func (u *UserSide) BuildExtended(app *workloads.App) (BuildResult, error) {
	return u.buildWith(app, true, cache.Options{})
}

// BuildExtendedObfuscated is BuildExtended with source obfuscation: the
// cache layer carries IP-protected sources that still support every
// system-side adaptation (paper §4.6).
func (u *UserSide) BuildExtendedObfuscated(app *workloads.App) (BuildResult, error) {
	return u.buildWith(app, true, cache.Options{Obfuscate: true})
}

// BuildExtendedIR is BuildExtended with IR-level distribution: the cache
// layer carries compiler bitcode instead of sources (paper §4.6's
// alternative). The resulting image recompiles for any toolchain of its
// own ISA, but its packages are version-locked and it cannot cross ISAs.
func (u *UserSide) BuildExtendedIR(app *workloads.App) (BuildResult, error) {
	return u.buildWith(app, true, cache.Options{Format: cache.FormatIR})
}

func (u *UserSide) buildWith(app *workloads.App, comtainer bool, cacheOpts cache.Options) (BuildResult, error) {
	return u.BuildContainerfile(app.Name, app.Containerfile(u.ISA, comtainer),
		contextFor(app, u.ISA), comtainer, cacheOpts)
}

// BuildContainerfile runs the user-side workflow over an arbitrary
// two-stage Containerfile and build context: build both stages, and — when
// comtainer is true — analyze the build and attach the cache layer. The
// Containerfile must follow the paper's convention of a "build" stage and
// a "dist" stage.
func (u *UserSide) BuildContainerfile(name, cfText string, ctx *fsim.FS, comtainer bool, cacheOpts cache.Options) (BuildResult, error) {
	cf, err := containerfile.Parse(cfText)
	if err != nil {
		return BuildResult{}, fmt.Errorf("core: parsing %s Containerfile: %w", name, err)
	}
	if _, ok := cf.StageByName("build"); !ok {
		return BuildResult{}, fmt.Errorf("core: Containerfile for %s has no 'build' stage", name)
	}
	if _, ok := cf.StageByName("dist"); !ok {
		return BuildResult{}, fmt.Errorf("core: Containerfile for %s has no 'dist' stage", name)
	}
	builder := &containerfile.Builder{
		Repo:     u.Repo,
		Context:  ctx,
		Registry: u.Registry,
		AptIndex: u.AptIndex,
		Recorder: hijack.NewRecorder(),
		Cache:    u.BuildCache,
	}
	res := BuildResult{
		BuildTag: name + ".build",
		DistTag:  name + ".dist",
	}
	buildDesc, err := builder.Build(cf, "build")
	if err != nil {
		return BuildResult{}, fmt.Errorf("core: building %s (build stage): %w", name, err)
	}
	u.Repo.Tag(res.BuildTag, buildDesc)
	distDesc, err := builder.Build(cf, "dist")
	if err != nil {
		return BuildResult{}, fmt.Errorf("core: building %s (dist stage): %w", name, err)
	}
	u.Repo.Tag(res.DistTag, distDesc)
	if !comtainer {
		return res, nil
	}

	// coMtainer-build: analyze inside the build container, extend the
	// dist image with the cache layer.
	buildImg, err := oci.LoadImage(u.Repo.Store, buildDesc)
	if err != nil {
		return BuildResult{}, err
	}
	distImg, err := oci.LoadImage(u.Repo.Store, distDesc)
	if err != nil {
		return BuildResult{}, err
	}
	models, buildFS, err := frontend.Analyze(buildImg, distImg)
	if err != nil {
		return BuildResult{}, fmt.Errorf("core: coMtainer-build analysis of %s: %w", name, err)
	}
	if _, err := cache.ExtendWith(u.Repo, res.DistTag, models, buildFS, cacheOpts); err != nil {
		return BuildResult{}, fmt.Errorf("core: extending %s: %w", name, err)
	}
	res.ExtendedTag = cache.ExtendedTag(res.DistTag)
	return res, nil
}

// SystemSide is the system side of the workflow for one cluster: its own
// image store (with the Sysenv/Rebase images) and the system profile.
type SystemSide struct {
	Repo   *oci.Repository
	System *sysprofile.System

	// ActionMemo, when set, memoizes rebuild toolchain commands through
	// the action cache, so repeat adaptations of the same image for the
	// same target replay from cache.
	ActionMemo *actioncache.Memoizer
	// RebuildWorkers bounds rebuild concurrency (0 = default).
	RebuildWorkers int
	// RemoteExec, when set, routes cache-missed rebuild commands to a
	// remote-execution farm (local fallback on any farm failure).
	RemoteExec *remoteexec.Executor
}

// NewSystemSide creates the system-side environment of a cluster.
func NewSystemSide(sys *sysprofile.System) (*SystemSide, error) {
	repo := oci.NewRepository()
	if err := sysprofile.PopulateSystemSide(repo, sys); err != nil {
		return nil, err
	}
	return &SystemSide{Repo: repo, System: sys}, nil
}

// Pull copies an image (by tag) from a remote repository into the system's
// local store — the registry transfer of the workflow.
func (s *SystemSide) Pull(from *oci.Repository, tag string) error {
	desc, err := from.Resolve(tag)
	if err != nil {
		return err
	}
	return s.Repo.PushImage(from.Store, desc, tag)
}

// Rebuild runs coMtainer-rebuild with the given adapters (defaults to the
// "adapted" chain) and returns the +coMre descriptor.
func (s *SystemSide) Rebuild(distTag string, adapters []adapter.Adapter, extra map[string][]byte) (oci.Descriptor, *adapter.Report, error) {
	return s.RebuildWith(distTag, adapters, extra, nil)
}

// RebuildWith is Rebuild with an explicit toolchain registry for the
// rebuild container — used by ablations that rebuild under the *generic*
// toolchain (e.g. measuring library replacement alone).
func (s *SystemSide) RebuildWith(distTag string, adapters []adapter.Adapter, extra map[string][]byte, reg *toolchain.Registry) (oci.Descriptor, *adapter.Report, error) {
	return backend.Rebuild(s.Repo, distTag, backend.RebuildOptions{
		System:     s.System,
		Adapters:   adapters,
		Registry:   reg,
		ExtraFiles: extra,
		Memo:       s.ActionMemo,
		Workers:    s.RebuildWorkers,
		RemoteExec: s.RemoteExec,
	})
}

// Redirect runs coMtainer-redirect, producing the final optimized image
// tagged distTag+".redirect".
func (s *SystemSide) Redirect(distTag string) (oci.Descriptor, error) {
	return backend.Redirect(s.Repo, distTag, backend.RedirectOptions{System: s.System})
}

// Adapt performs rebuild+redirect with the given adapter chain and
// returns the optimized image's tag.
func (s *SystemSide) Adapt(distTag string, adapters []adapter.Adapter) (string, error) {
	if _, _, err := s.Rebuild(distTag, adapters, nil); err != nil {
		return "", err
	}
	if _, err := s.Redirect(distTag); err != nil {
		return "", err
	}
	return distTag + ".redirect", nil
}

// profileDropPath is where the PGO loop places the collected profile
// inside the rebuild container.
const profileDropPath = "/.comtainer/profile/default.profdata"

// PGOLoop runs the automated profile-guided-optimization feedback loop of
// §4.4: rebuild instrumented → redirect → trial run (collecting the
// profile) → rebuild with the profile → redirect. The final optimized
// image replaces distTag+".redirect". trainRef and trainNodes define the
// profiling run.
func (s *SystemSide) PGOLoop(distTag string, base []adapter.Adapter, trainRef workloads.Ref, trainNodes int) error {
	instr := append(append([]adapter.Adapter{}, base...), adapter.PGOInstrument())
	if _, _, err := s.Rebuild(distTag, instr, nil); err != nil {
		return fmt.Errorf("core: PGO instrumentation rebuild: %w", err)
	}
	if _, err := s.Redirect(distTag); err != nil {
		return fmt.Errorf("core: PGO instrumentation redirect: %w", err)
	}
	img, err := s.Repo.LoadByTag(distTag + ".redirect")
	if err != nil {
		return err
	}
	run, err := chrun.RunImage(s.System, trainRef, img, trainNodes)
	if err != nil {
		return fmt.Errorf("core: PGO trial run: %w", err)
	}
	if len(run.Profile) == 0 {
		return fmt.Errorf("core: trial run produced no profile (binary not instrumented?)")
	}
	use := append(append([]adapter.Adapter{}, base...), adapter.PGOUse(profileDropPath))
	extra := map[string][]byte{profileDropPath: run.Profile}
	if _, _, err := s.Rebuild(distTag, use, extra); err != nil {
		return fmt.Errorf("core: PGO optimizing rebuild: %w", err)
	}
	if _, err := s.Redirect(distTag); err != nil {
		return fmt.Errorf("core: PGO optimizing redirect: %w", err)
	}
	return nil
}

// Run executes an image from the system's store for a workload.
func (s *SystemSide) Run(tag string, ref workloads.Ref, nodes int) (chrun.Result, error) {
	img, err := s.Repo.LoadByTag(tag)
	if err != nil {
		return chrun.Result{}, err
	}
	return chrun.RunImage(s.System, ref, img, nodes)
}

// NativeBuild compiles an app directly on the HPC system — no containers,
// the vendor toolchain, the full native stack including the vendor C
// runtime. It returns the run root and binary path of the evaluation's
// "native" scheme.
func NativeBuild(sys *sysprofile.System, app *workloads.App) (*fsim.FS, string, error) {
	fs := fsim.New()
	db := dpkg.NewDB()
	idx := sys.AptIndex()
	// Generic core first, then the full vendor stack plus native libc.
	for _, name := range []string{"libc6", "libm6", "libstdc++6", "libgomp1", "zlib1g", "libgfortran5"} {
		p, ok := idx.Latest(name)
		if !ok {
			return nil, "", fmt.Errorf("core: native stack missing %s", name)
		}
		if err := db.InstallWithDeps(fs, idx, p); err != nil {
			return nil, "", err
		}
	}
	for _, name := range app.RuntimePkgs {
		p, ok := idx.Latest(name)
		if !ok {
			return nil, "", fmt.Errorf("core: native stack missing %s", name)
		}
		if err := db.InstallWithDeps(fs, idx, p); err != nil {
			return nil, "", err
		}
	}
	for _, p := range sysprofile.NativePackages(sys) {
		if err := db.Install(fs, p); err != nil {
			return nil, "", err
		}
	}
	// Sources and the hand-run vendor build.
	for name, data := range app.SourceFiles(sys.ISA) {
		fs.Add(&fsim.File{Path: "/home/user/" + app.Name + "/" + name, Mode: 0o644, Data: data})
	}
	runner := toolchain.NewRunner(fs, sys.Toolchains)
	runner.Cwd = "/home/user/" + app.Name

	ext := ".c"
	cc := "gcc"
	if app.Language == "c++" {
		ext, cc = ".cc", "g++"
	}
	var objs []string
	for i := 0; i < app.NumSrcFiles; i++ {
		src := fmt.Sprintf("%s_%02d%s", app.Name, i, ext)
		obj := fmt.Sprintf("%s_%02d.o", app.Name, i)
		argv := []string{cc, "-O2", "-march=native", "-mtune=native", "-c", src, "-o", obj}
		if app.Portability == workloads.Guarded && sys.ISA == toolchain.ISAArm {
			argv = append(argv[:1], append([]string{"-D" + toolchain.PortabilityDefine}, argv[1:]...)...)
		}
		if err := runner.Run(argv); err != nil {
			return nil, "", fmt.Errorf("core: native compile of %s: %w", src, err)
		}
		objs = append(objs, obj)
	}
	bin := "/home/user/" + app.Name + "/" + app.Name
	link := append([]string{cc}, objs...)
	link = append(link, "-o", bin)
	for _, l := range app.Libs {
		link = append(link, "-l"+l)
	}
	if err := runner.Run(link); err != nil {
		return nil, "", fmt.Errorf("core: native link of %s: %w", app.Name, err)
	}
	if !strings.HasPrefix(bin, "/") {
		return nil, "", fmt.Errorf("core: internal error: relative binary path")
	}
	return fs, bin, nil
}
