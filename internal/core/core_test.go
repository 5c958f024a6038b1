package core

import (
	"strings"
	"testing"

	"comtainer/internal/chrun"
	"comtainer/internal/core/adapter"
	"comtainer/internal/core/cache"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

func mustApp(t *testing.T, name string) *workloads.App {
	t.Helper()
	app, err := workloads.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func refFor(t *testing.T, id string) workloads.Ref {
	t.Helper()
	for _, r := range workloads.AllRefs() {
		if r.ID() == id {
			return r
		}
	}
	t.Fatalf("no workload %s", id)
	return workloads.Ref{}
}

// fullWorkflow runs user build + system adapt for one app and returns the
// system side with all images in place.
func fullWorkflow(t *testing.T, sys *sysprofile.System, appName string, adapters []adapter.Adapter) (*SystemSide, string) {
	t.Helper()
	user, err := NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, appName)
	res, err := user.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	system, err := NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	optTag, err := system.Adapt(res.DistTag, adapters)
	if err != nil {
		t.Fatal(err)
	}
	return system, optTag
}

func TestUserSideBuildExtended(t *testing.T) {
	user, err := NewUserSide(toolchain.ISAx86)
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "lulesh")
	res, err := user.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtendedTag != "lulesh.dist+coM" {
		t.Errorf("ExtendedTag = %q", res.ExtendedTag)
	}
	// The extended image shares every dist layer and adds exactly one.
	distImg, err := user.Repo.LoadByTag(res.DistTag)
	if err != nil {
		t.Fatal(err)
	}
	extImg, err := user.Repo.LoadByTag(res.ExtendedTag)
	if err != nil {
		t.Fatal(err)
	}
	if len(extImg.Manifest.Layers) != len(distImg.Manifest.Layers)+1 {
		t.Errorf("extended layers = %d, dist = %d", len(extImg.Manifest.Layers), len(distImg.Manifest.Layers))
	}
	for i := range distImg.Manifest.Layers {
		if extImg.Manifest.Layers[i].Digest != distImg.Manifest.Layers[i].Digest {
			t.Errorf("layer %d not shared", i)
		}
	}
	// The cache layer carries models and all sources.
	models, srcFS, err := cache.Read(extImg)
	if err != nil {
		t.Fatal(err)
	}
	if models.Graph.Len() == 0 {
		t.Error("empty build graph")
	}
	if len(models.SourcePaths) < app.NumSrcFiles {
		t.Errorf("SourcePaths = %v", models.SourcePaths)
	}
	for _, p := range models.SourcePaths {
		if !srcFS.Exists(p) {
			t.Errorf("source %s missing from cache", p)
		}
	}
	// The dist binary is classified as a build product and mapped back.
	if _, ok := models.Installed[app.BinPath()]; !ok {
		t.Errorf("Installed map misses %s: %v", app.BinPath(), models.Installed)
	}
	// Each stage ran and was committed once: every blob is reachable
	// from a tag, and a fresh build replayed nothing from its own cache.
	reachable := oci.NewRepository()
	for _, tag := range user.Repo.Tags() {
		desc, err := user.Repo.Resolve(tag)
		if err != nil {
			t.Fatal(err)
		}
		if err := reachable.PushImage(user.Repo.Store, desc, tag); err != nil {
			t.Fatal(err)
		}
	}
	if got, all := len(reachable.Store.Digests()), len(user.Repo.Store.Digests()); got != all {
		t.Errorf("%d of %d blobs are reachable from a tag", got, all)
	}
	if hits, misses := user.BuildCache.Stats(); hits != 0 {
		t.Errorf("one fresh build: %d build-cache hits, %d misses", hits, misses)
	}
}

func TestBuildOriginalHasNoCache(t *testing.T) {
	user, err := NewUserSide(toolchain.ISAx86)
	if err != nil {
		t.Fatal(err)
	}
	res, err := user.BuildOriginal(mustApp(t, "comd"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtendedTag != "" {
		t.Error("conventional build produced an extended tag")
	}
	img, err := user.Repo.LoadByTag(res.DistTag)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if flat.Exists(cache.ModelsPath) {
		t.Error("conventional image carries a cache layer")
	}
}

func TestFullWorkflowAdaptedBeatsOriginal(t *testing.T) {
	sys := sysprofile.X86Cluster()
	system, optTag := fullWorkflow(t, sys, "lulesh", adapter.DefaultAdapted())
	ref := refFor(t, "lulesh")

	// Original scheme: the conventional generic image.
	user, err := NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := user.BuildOriginal(mustApp(t, "lulesh"))
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Pull(user.Repo, orig.DistTag); err != nil {
		// Same tag may collide with the adapted flow's dist tag; re-tag.
		t.Fatal(err)
	}
	origImg, err := oci.LoadImage(system.Repo.Store, mustResolve(t, user.Repo, orig.DistTag))
	if err != nil {
		// The blobs were pulled; load via the local store.
		t.Fatal(err)
	}
	tOrig, err := chrun.RunImage(sys, ref, origImg, 16)
	if err != nil {
		t.Fatal(err)
	}
	tOpt, err := system.Run(optTag, ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tOpt.Seconds >= tOrig.Seconds {
		t.Errorf("adapted (%.2fs) not faster than original (%.2fs)", tOpt.Seconds, tOrig.Seconds)
	}
	// The adapted binary was produced by the vendor toolchain at the
	// node's micro-architecture.
	if tOpt.Binary.Vendor != sys.Vendor || tOpt.Binary.March != sys.NativeMarch {
		t.Errorf("adapted binary = %+v", tOpt.Binary)
	}
	// Its libraries resolved as optimized.
	if tOpt.LibFraction < 0.99 {
		t.Errorf("adapted LibFraction = %f", tOpt.LibFraction)
	}
	if tOrig.LibFraction > 0 {
		t.Errorf("original LibFraction = %f", tOrig.LibFraction)
	}
}

func mustResolve(t *testing.T, repo *oci.Repository, tag string) oci.Descriptor {
	t.Helper()
	d, err := repo.Resolve(tag)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAdaptedMatchesNative(t *testing.T) {
	for _, sys := range sysprofile.Both() {
		system, optTag := fullWorkflow(t, sys, "comd", adapter.DefaultAdapted())
		ref := refFor(t, "comd")
		tAdapted, err := system.Run(optTag, ref, 16)
		if err != nil {
			t.Fatal(err)
		}
		nativeFS, binPath, err := NativeBuild(sys, ref.App)
		if err != nil {
			t.Fatal(err)
		}
		tNative, err := chrun.RunFS(sys, ref, nativeFS, binPath, 16)
		if err != nil {
			t.Fatal(err)
		}
		if tAdapted.Seconds < tNative.Seconds {
			t.Errorf("%s: adapted (%.3f) beat native (%.3f)", sys.Name, tAdapted.Seconds, tNative.Seconds)
		}
		if tAdapted.Seconds > tNative.Seconds*1.06 {
			t.Errorf("%s: adapted (%.3f) not comparable to native (%.3f)", sys.Name, tAdapted.Seconds, tNative.Seconds)
		}
	}
}

func TestLTOAdapterProducesLTOBinary(t *testing.T) {
	sys := sysprofile.X86Cluster()
	system, optTag := fullWorkflow(t, sys, "hpccg", adapter.DefaultOptimized())
	ref := refFor(t, "hpccg")
	res, err := system.Run(optTag, ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Binary.LTO {
		t.Error("optimized binary lacks LTO")
	}
	if res.LTOFactor == 1.0 {
		t.Error("LTO factor not applied")
	}
}

func TestPGOLoop(t *testing.T) {
	sys := sysprofile.X86Cluster()
	user, err := NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "minimd")
	res, err := user.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	system, err := NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	ref := refFor(t, "minimd")
	// The instrumented trial runs slower than the adapted+LTO baseline,
	// and the loop's result faster.
	run := func(adapters ...adapter.Adapter) chrun.Result {
		t.Helper()
		tag, err := system.Adapt(res.DistTag, append(adapter.DefaultOptimized(), adapters...))
		if err != nil {
			t.Fatal(err)
		}
		out, err := system.Run(tag, ref, 16)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	baseline, trial := run(), run(adapter.PGOInstrument())
	if trial.Seconds <= baseline.Seconds {
		t.Errorf("instrumented trial runs in %.3f s, not slower than the %.3f s baseline", trial.Seconds, baseline.Seconds)
	}
	if err := system.PGOLoop(res.DistTag, adapter.DefaultOptimized(), ref, 16); err != nil {
		t.Fatal(err)
	}
	final, err := system.Run(res.DistTag+".redirect", ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	if final.Seconds >= baseline.Seconds {
		t.Errorf("PGO result runs in %.3f s, not faster than the %.3f s baseline", final.Seconds, baseline.Seconds)
	}
	if !final.Binary.PGOOptimized {
		t.Error("final binary not PGO-optimized")
	}
	if final.Binary.PGOInstrumented {
		t.Error("final binary still instrumented")
	}
	if final.Binary.ProfileData == "" {
		t.Error("final binary lost its profile reference")
	}
	if !final.Binary.LTO {
		t.Error("PGO loop dropped LTO")
	}
}

func TestCrossISAWorkflow(t *testing.T) {
	// Build on x86-64, rebuild+redirect on the AArch64 system (§5.5).
	x86User, err := NewUserSide(toolchain.ISAx86)
	if err != nil {
		t.Fatal(err)
	}
	armSys := sysprofile.ArmCluster()
	system, err := NewSystemSide(armSys)
	if err != nil {
		t.Fatal(err)
	}

	// A guarded app crosses with the CrossISA adapter.
	app := mustApp(t, "lulesh")
	res, err := x86User.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Pull(x86User.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	chain := append([]adapter.Adapter{adapter.CrossISA()}, adapter.DefaultAdapted()...)
	optTag, err := system.Adapt(res.DistTag, chain)
	if err != nil {
		t.Fatalf("cross-ISA adapt failed: %v", err)
	}
	run, err := system.Run(optTag, refFor(t, "lulesh"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if run.Binary.TargetISA != toolchain.ISAArm {
		t.Errorf("cross-rebuilt binary targets %s", run.Binary.TargetISA)
	}

	// A mandatory-ISA app must fail.
	hpl := mustApp(t, "hpl")
	res2, err := x86User.BuildExtended(hpl)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Pull(x86User.Repo, res2.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	_, err = system.Adapt(res2.DistTag, chain)
	if err == nil || !strings.Contains(err.Error(), "unguarded") {
		t.Errorf("mandatory-ISA app crossed ISAs: %v", err)
	}

	// Without the CrossISA adapter, the rebuild itself fails on the
	// foreign machine flags or sources.
	_, _, err = system.Rebuild(res.DistTag, adapter.DefaultAdapted(), nil)
	if err == nil {
		t.Error("x86 extended image rebuilt on aarch64 without the cross-ISA adapter")
	}
}

func TestLLVMArtifactEvaluationPath(t *testing.T) {
	// The AE ships the free LLVM toolchain in place of the vendor one;
	// adaptation still works, the libraries still deliver, but the
	// compiler gain is diminished compared to the vendor toolchain.
	sys := sysprofile.X86Cluster()
	user, err := NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "openmx")
	res, err := user.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	ref := refFor(t, "openmx.pt13")

	vendorSide, err := NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := vendorSide.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	vendorTag, err := vendorSide.Adapt(res.DistTag, adapter.DefaultAdapted())
	if err != nil {
		t.Fatal(err)
	}
	vendorRun, err := vendorSide.Run(vendorTag, ref, 16)
	if err != nil {
		t.Fatal(err)
	}

	llvmSide, err := NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := llvmSide.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	if _, _, err := llvmSide.RebuildWith(res.DistTag, adapter.DefaultAdapted(), nil, sys.LLVMRegistry()); err != nil {
		t.Fatalf("LLVM rebuild: %v", err)
	}
	if _, err := llvmSide.Redirect(res.DistTag); err != nil {
		t.Fatalf("LLVM redirect: %v", err)
	}
	llvmRun, err := llvmSide.Run(res.DistTag+".redirect", ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	if llvmRun.Binary.Vendor != "llvm" {
		t.Errorf("LLVM rebuild vendor = %q", llvmRun.Binary.Vendor)
	}
	if llvmRun.Binary.March != sys.NativeMarch {
		t.Errorf("LLVM -march=native resolved to %q, want %q", llvmRun.Binary.March, sys.NativeMarch)
	}
	// Libraries are still the optimized stack...
	if llvmRun.LibFraction < 0.99 {
		t.Errorf("LLVM adapt LibFraction = %f", llvmRun.LibFraction)
	}
	// ...but the compiler gain is diminished: slower than the vendor
	// rebuild, faster than nothing.
	if !(llvmRun.Seconds > vendorRun.Seconds) {
		t.Errorf("LLVM (%.2f) not slower than vendor (%.2f)", llvmRun.Seconds, vendorRun.Seconds)
	}
	if llvmRun.CCFactor <= 1.0 || llvmRun.CCFactor >= vendorRun.CCFactor {
		t.Errorf("LLVM CCFactor = %.3f, vendor = %.3f", llvmRun.CCFactor, vendorRun.CCFactor)
	}
}

func TestObfuscatedWorkflowEndToEnd(t *testing.T) {
	// Paper §4.6: obfuscated sources must still enable every system-side
	// adaptation — including the cross-ISA guarded fallback.
	x86User, err := NewUserSide(toolchain.ISAx86)
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "lulesh")
	res, err := x86User.BuildExtendedObfuscated(app)
	if err != nil {
		t.Fatal(err)
	}
	// The cache carries no original source text.
	extImg, err := x86User.Repo.LoadByTag(res.ExtendedTag)
	if err != nil {
		t.Fatal(err)
	}
	_, srcFS, err := cache.Read(extImg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range srcFS.Paths() {
		data, err := srcFS.ReadFile(p)
		if err != nil {
			continue
		}
		if !cache.IsObfuscated(data) {
			t.Errorf("%s not obfuscated", p)
		}
		if strings.Contains(string(data), "lulesh_c0_0") {
			t.Errorf("%s leaked original identifiers", p)
		}
	}
	// Same-ISA adaptation works on the obfuscated cache.
	x86sys, err := NewSystemSide(sysprofile.X86Cluster())
	if err != nil {
		t.Fatal(err)
	}
	if err := x86sys.Pull(x86User.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	optTag, err := x86sys.Adapt(res.DistTag, adapter.DefaultOptimized())
	if err != nil {
		t.Fatalf("adapt on obfuscated cache: %v", err)
	}
	out, err := x86sys.Run(optTag, refFor(t, "lulesh"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if out.Binary.Vendor != "intellic" || !out.Binary.LTO {
		t.Errorf("obfuscated rebuild binary = %+v", out.Binary)
	}
	// And the cross-ISA adapter still sees the portability guard.
	armSys, err := NewSystemSide(sysprofile.ArmCluster())
	if err != nil {
		t.Fatal(err)
	}
	if err := armSys.Pull(x86User.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	chain := append([]adapter.Adapter{adapter.CrossISA()}, adapter.DefaultAdapted()...)
	if _, err := armSys.Adapt(res.DistTag, chain); err != nil {
		t.Fatalf("cross-ISA on obfuscated cache: %v", err)
	}
}

func TestMakeDrivenBuildWorkflow(t *testing.T) {
	// A realistic HPC build: `RUN make` drives the compiler, the hijacker
	// records the spawned gcc commands, and the whole adaptation pipeline
	// works on the recorded graph.
	sys := sysprofile.X86Cluster()
	user, err := NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	ctx := fsim.New()
	ctx.WriteFile("/src/solver.c", []byte("double solve(double x){return x;}\nint main(){return 0;}\n"), 0o644)
	ctx.WriteFile("/src/io.c", []byte("int out(void){return 0;}\n"), 0o644)
	ctx.WriteFile("/src/Makefile", []byte(`CC := gcc
CFLAGS := -O2
OBJS := solver.o io.o

app: $(OBJS)
	$(CC) $(CFLAGS) $^ -lm -o /app/solver

%.o: %.c
	$(CC) $(CFLAGS) -c $< -o $@
`), 0o644)
	cf := `FROM comt:ubuntu24.env AS build
RUN apt-get install -y build-essential
COPY src /w
WORKDIR /w
RUN make

FROM comt:ubuntu24.base AS dist
COPY --from=build /app/solver /app/solver
ENTRYPOINT ["/app/solver"]
`
	res, err := user.BuildContainerfile("solver", cf, ctx, true, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The recorded graph has 2 sources, 2 objects, 1 executable.
	extImg, err := user.Repo.LoadByTag(res.ExtendedTag)
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := cache.Read(extImg)
	if err != nil {
		t.Fatal(err)
	}
	if models.Graph.Len() != 5 {
		t.Errorf("graph nodes = %d, want 5", models.Graph.Len())
	}
	if _, ok := models.Graph.ByPath("/app/solver"); !ok {
		t.Errorf("executable node missing; have %v", models.SourcePaths)
	}
	// And the system side rebuilds it with the vendor toolchain.
	system, err := NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	if _, _, err := system.Rebuild(res.DistTag, adapter.DefaultAdapted(), nil); err != nil {
		t.Fatalf("rebuild of make-driven graph: %v", err)
	}
	desc, err := system.Redirect(res.DistTag)
	if err != nil {
		t.Fatal(err)
	}
	img, err := oci.LoadImage(system.Repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, err := flat.ReadFile("/app/solver")
	if err != nil {
		t.Fatal(err)
	}
	art, err := toolchain.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.Vendor != sys.Vendor || len(art.Sources) != 2 {
		t.Errorf("rebuilt make-driven binary = %+v", art)
	}
}

func TestCrossISAMultiArchPublish(t *testing.T) {
	// The §5.5 vision: after a cross-ISA rebuild, both per-ISA images can
	// be published under one multi-architecture manifest list.
	x86Sys := sysprofile.X86Cluster()
	armSys := sysprofile.ArmCluster()
	user, err := NewUserSide(toolchain.ISAx86)
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "comd")
	res, err := user.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	// Adapt for x86 locally and cross-adapt for ARM.
	x86Side, err := NewSystemSide(x86Sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := x86Side.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	x86Tag, err := x86Side.Adapt(res.DistTag, adapter.DefaultAdapted())
	if err != nil {
		t.Fatal(err)
	}
	armSide, err := NewSystemSide(armSys)
	if err != nil {
		t.Fatal(err)
	}
	if err := armSide.Pull(user.Repo, res.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	chain := append([]adapter.Adapter{adapter.CrossISA()}, adapter.DefaultAdapted()...)
	armTag, err := armSide.Adapt(res.DistTag, chain)
	if err != nil {
		t.Fatal(err)
	}

	// Publish a fat manifest in a shared store.
	shared := oci.NewRepository()
	x86Desc := mustResolve(t, x86Side.Repo, x86Tag)
	if err := shared.PushImage(x86Side.Repo.Store, x86Desc, "comd-x86"); err != nil {
		t.Fatal(err)
	}
	armDesc := mustResolve(t, armSide.Repo, armTag)
	if err := shared.PushImage(armSide.Repo.Store, armDesc, "comd-arm"); err != nil {
		t.Fatal(err)
	}
	x86Desc.Platform = &oci.Platform{Architecture: "amd64", OS: "linux"}
	armDesc.Platform = &oci.Platform{Architecture: "arm64", OS: "linux"}
	list, err := oci.PutJSON(shared.Store, oci.Index{SchemaVersion: 2, MediaType: oci.MediaTypeIndex,
		Manifests: []oci.Descriptor{x86Desc, armDesc}}, oci.MediaTypeIndex)
	if err != nil {
		t.Fatal(err)
	}

	shared.Tag("comd", list)

	// Each cluster pulls the fat tag — the list, both member images and
	// all their blobs — and runs the member built for it.
	ref := refFor(t, "comd")
	for _, tc := range []struct {
		sys  *sysprofile.System
		arch string
		desc oci.Descriptor
	}{{x86Sys, "amd64", x86Desc}, {armSys, "arm64", armDesc}} {
		side, err := NewSystemSide(tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		if err := side.Pull(shared, "comd"); err != nil {
			t.Fatalf("%s: pulling the manifest-list tag: %v", tc.arch, err)
		}
		img, err := oci.LoadImage(side.Repo.Store, tc.desc)
		if err != nil {
			t.Fatal(err)
		}
		run, err := chrun.RunImage(tc.sys, ref, img, 16)
		if err != nil {
			t.Fatalf("%s: %v", tc.arch, err)
		}
		if run.Binary.TargetISA != tc.sys.ISA {
			t.Errorf("%s resolved a %s binary", tc.arch, run.Binary.TargetISA)
		}
	}
}

func TestIRDistributionWorkflow(t *testing.T) {
	// Paper §4.6: IR distribution still enables toolchain-level
	// adaptation, but locks package versions and the ISA.
	sys := sysprofile.X86Cluster()
	user, err := NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "openmx")
	irRes, err := user.BuildExtendedIR(app)
	if err != nil {
		t.Fatal(err)
	}
	// The cache carries bitcode, not source.
	extImg, err := user.Repo.LoadByTag(irRes.ExtendedTag)
	if err != nil {
		t.Fatal(err)
	}
	models, srcFS, err := cache.Read(extImg)
	if err != nil {
		t.Fatal(err)
	}
	if !models.IRLocked() {
		t.Error("IR cache not marked locked")
	}
	sawBitcode := false
	for _, p := range models.SourcePaths {
		data, err := srcFS.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if toolchain.IsArtifact(data) {
			art, err := toolchain.Decode(data)
			if err != nil || art.Kind != toolchain.KindBitcode {
				t.Errorf("%s: not bitcode: %v", p, err)
			}
			sawBitcode = true
		} else if strings.HasSuffix(p, ".c") || strings.HasSuffix(p, ".cc") {
			t.Errorf("%s shipped as plain source in IR mode", p)
		}
	}
	if !sawBitcode {
		t.Fatal("no bitcode in the cache")
	}

	// Adapt on the same ISA: toolchain gains apply, packages stay locked.
	system, err := NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Pull(user.Repo, irRes.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	optTag, err := system.Adapt(irRes.DistTag, adapter.DefaultAdapted())
	if err != nil {
		t.Fatalf("IR adapt: %v", err)
	}
	ref := refFor(t, "openmx.pt13")
	irRun, err := system.Run(optTag, ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	if irRun.Binary.Vendor != sys.Vendor {
		t.Errorf("IR rebuild vendor = %q", irRun.Binary.Vendor)
	}
	if irRun.LibFraction != 0 {
		t.Errorf("IR-locked image got optimized libraries: fraction %f", irRun.LibFraction)
	}

	// Source-mode adaptation of the same app is strictly faster (libs
	// replaced too).
	srcUser, err := NewUserSide(sys.ISA)
	if err != nil {
		t.Fatal(err)
	}
	srcRes, err := srcUser.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	srcSystem, err := NewSystemSide(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcSystem.Pull(srcUser.Repo, srcRes.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	srcTag, err := srcSystem.Adapt(srcRes.DistTag, adapter.DefaultAdapted())
	if err != nil {
		t.Fatal(err)
	}
	srcRun, err := srcSystem.Run(srcTag, ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	if srcRun.Seconds >= irRun.Seconds {
		t.Errorf("source-mode adapted (%.2f) not faster than IR-mode (%.2f)", srcRun.Seconds, irRun.Seconds)
	}

	// Cross-ISA on IR fails with a precise diagnosis.
	armSystem, err := NewSystemSide(sysprofile.ArmCluster())
	if err != nil {
		t.Fatal(err)
	}
	if err := armSystem.Pull(user.Repo, irRes.ExtendedTag); err != nil {
		t.Fatal(err)
	}
	chain := append([]adapter.Adapter{adapter.CrossISA()}, adapter.DefaultAdapted()...)
	if _, err := armSystem.Adapt(irRes.DistTag, chain); err == nil ||
		!strings.Contains(err.Error(), "IR") {
		t.Errorf("IR cross-ISA: %v", err)
	}
}

func TestNativeBuildFailsForWrongISAExtras(t *testing.T) {
	// Mandatory apps still build natively on their own ISA.
	sys := sysprofile.X86Cluster()
	fs, bin, err := NativeBuild(sys, mustApp(t, "hpl"))
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(bin) {
		t.Error("native binary missing")
	}
}

func TestRedirectImageLayoutCompatible(t *testing.T) {
	// Paper AD: the redirected image "should have a file system layout
	// compatible with the original dist image".
	sys := sysprofile.X86Cluster()
	system, optTag := fullWorkflow(t, sys, "lammps", adapter.DefaultAdapted())
	img, err := system.Repo.LoadByTag(optTag)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	app := mustApp(t, "lammps")
	if !flat.Exists(app.BinPath()) {
		t.Error("redirected image misses the application binary")
	}
	if !flat.Exists("/app/data/potentials.dat") {
		t.Error("redirected image misses bundled data")
	}
	if got := img.Config.Config.Entrypoint; len(got) == 0 || got[0] != app.BinPath() {
		t.Errorf("redirected entrypoint = %v", got)
	}
	// Runtime libs are the vendor builds now.
	data, err := flat.ReadFile("/usr/lib/libfftw3.so.3")
	if err != nil {
		t.Fatal(err)
	}
	art, err := toolchain.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Optimized {
		t.Error("redirect did not install the optimized fftw")
	}
}
