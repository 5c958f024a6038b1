package backend

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"comtainer/internal/chrun"
	"comtainer/internal/containerfile"

	"comtainer/internal/core/cache"
	"comtainer/internal/core/frontend"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// setup builds the comd app end-to-end on the user side and returns a
// system-side repo holding the extended image plus Sysenv/Rebase images.
func setup(t *testing.T, sys *sysprofile.System) (*oci.Repository, string) {
	t.Helper()
	userRepo := oci.NewRepository()
	if err := sysprofile.PopulateUserSide(userRepo, sys.ISA); err != nil {
		t.Fatal(err)
	}
	app, err := workloads.Find("comd")
	if err != nil {
		t.Fatal(err)
	}
	ctx := fsim.New()
	for name, content := range app.Sources(sys.ISA) {
		ctx.WriteFile("/src/"+name, []byte(content), 0o644)
	}
	b := &containerfile.Builder{
		Repo:     userRepo,
		Context:  ctx,
		Registry: toolchain.GenericRegistry(sys.ISA),
		AptIndex: sysprofile.GenericIndex(sys.ISA),
		Recorder: hijack.NewRecorder(),
	}
	cf, err := containerfile.Parse(app.Containerfile(sys.ISA, true))
	if err != nil {
		t.Fatal(err)
	}
	buildDesc, err := b.Build(cf, "build")
	if err != nil {
		t.Fatal(err)
	}
	distDesc, err := b.Build(cf, "dist")
	if err != nil {
		t.Fatal(err)
	}
	userRepo.Tag("comd.dist", distDesc)
	buildImg, _ := oci.LoadImage(userRepo.Store, buildDesc)
	distImg, _ := oci.LoadImage(userRepo.Store, distDesc)
	models, buildFS, err := frontend.Analyze(buildImg, distImg)
	if err != nil {
		t.Fatal(err)
	}
	extDesc, err := cache.ExtendWith(userRepo, "comd.dist", models, buildFS, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}

	sysRepo := oci.NewRepository()
	if err := sysprofile.PopulateSystemSide(sysRepo, sys); err != nil {
		t.Fatal(err)
	}
	if err := sysRepo.PushImage(userRepo.Store, extDesc, cache.ExtendedTag("comd.dist")); err != nil {
		t.Fatal(err)
	}
	return sysRepo, "comd.dist"
}

func TestRebuildProducesVendorArtifacts(t *testing.T) {
	sys := sysprofile.X86Cluster()
	repo, distTag := setup(t, sys)
	rebuilt, report, err := Rebuild(repo, distTag, RebuildOptions{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	if report.ChangedCommands == 0 {
		t.Error("no commands adapted")
	}
	img, err := oci.LoadImage(repo.Store, rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, err := flat.ReadFile(rebuildPrefix + "/app/comd")
	if err != nil {
		t.Fatalf("rebuilt binary missing: %v (paths: %v)", err, flat.Glob("/.comtainer/rebuild/*"))
	}
	art, err := toolchain.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.Vendor != sys.Vendor || art.March != sys.NativeMarch {
		t.Errorf("rebuilt artifact = vendor %s march %s", art.Vendor, art.March)
	}
	// +coMre tag exists.
	if _, err := repo.Resolve(cache.RebuiltTag(distTag)); err != nil {
		t.Error(err)
	}
}

func TestRebuildRequiresExtendedImage(t *testing.T) {
	sys := sysprofile.X86Cluster()
	repo := oci.NewRepository()
	if err := sysprofile.PopulateSystemSide(repo, sys); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Rebuild(repo, "ghost.dist", RebuildOptions{System: sys}); err == nil {
		t.Error("rebuild without an extended image succeeded")
	}
	if _, _, err := Rebuild(repo, "x", RebuildOptions{}); err == nil {
		t.Error("rebuild without a system succeeded")
	}
}

func TestRedirectInstallsOptimizedStack(t *testing.T) {
	sys := sysprofile.ArmCluster()
	repo, distTag := setup(t, sys)
	if _, _, err := Rebuild(repo, distTag, RebuildOptions{System: sys}); err != nil {
		t.Fatal(err)
	}
	desc, err := Redirect(repo, distTag, RedirectOptions{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	img, err := oci.LoadImage(repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	// Optimized MPI with the fabric plugin.
	data, err := flat.ReadFile("/usr/lib/libmpi.so.40")
	if err != nil {
		t.Fatal(err)
	}
	art, err := toolchain.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Optimized || !art.MPINetPlugin {
		t.Errorf("redirected MPI = %+v", art)
	}
	// The application binary landed at its dist path and runs.
	var ref workloads.Ref
	for _, r := range workloads.AllRefs() {
		if r.ID() == "comd" {
			ref = r
		}
	}
	res, err := chrun.RunImage(sys, ref, img, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.LibFraction < 0.99 {
		t.Errorf("LibFraction = %f", res.LibFraction)
	}
	// No cache/rebuild internals leak into the final image.
	if flat.Exists(cache.ModelsPath) || flat.Exists(planPath) {
		t.Error("coMtainer internals leaked into the optimized image")
	}
}

// TestAptIndexIsSharedAndReadOnly: a System builds its package index
// once, and a redirect, which installs from it, leaves it as it was.
func TestAptIndexIsSharedAndReadOnly(t *testing.T) {
	sys := sysprofile.X86Cluster()
	idx := sys.AptIndex()
	if sys.AptIndex() != idx {
		t.Fatal("AptIndex built a second index")
	}
	before, err := json.Marshal(idx.All())
	if err != nil {
		t.Fatal(err)
	}
	repo, distTag := setup(t, sys)
	if _, _, err := Rebuild(repo, distTag, RebuildOptions{System: sys}); err != nil {
		t.Fatal(err)
	}
	if _, err := Redirect(repo, distTag, RedirectOptions{System: sys}); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(idx.All())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a redirect changed the system's package index")
	}
}

func TestRedirectRequiresRebuild(t *testing.T) {
	sys := sysprofile.X86Cluster()
	repo, distTag := setup(t, sys)
	if _, err := Redirect(repo, distTag, RedirectOptions{System: sys}); err == nil ||
		!strings.Contains(err.Error(), "+coMre") {
		t.Errorf("redirect without rebuild: %v", err)
	}
}

func TestRebuildDeterministic(t *testing.T) {
	sys := sysprofile.X86Cluster()
	repo, distTag := setup(t, sys)
	d1, _, err := Rebuild(repo, distTag, RebuildOptions{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := Rebuild(repo, distTag, RebuildOptions{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Digest != d2.Digest {
		t.Error("rebuild is not deterministic")
	}
}
