package containerfile

import (
	"strings"
	"testing"

	"comtainer/internal/dpkg"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/toolchain"
)

// makeBase writes a minimal ubuntu-like base image into repo under tag,
// with the given role label.
func makeBase(t *testing.T, repo *oci.Repository, tag, role string) {
	t.Helper()
	fs := fsim.New()
	fs.WriteFile("/etc/os-release", []byte("ID=ubuntu\nVERSION_ID=24.04\n"), 0o644)
	fs.WriteFile("/bin/sh", []byte("#!shell"), 0o755)
	libc := toolchain.LibraryArtifact("libc", "gnu", toolchain.ISAx86, 1.0, false)
	fs.WriteFile("/usr/lib/libc.so.6", libc.Encode(), 0o644)
	fs.Symlink("libc.so.6", "/usr/lib/libc.so")
	libm := toolchain.LibraryArtifact("libm", "gnu", toolchain.ISAx86, 1.0, false)
	fs.WriteFile("/usr/lib/libm.so.6", libm.Encode(), 0o644)
	fs.Symlink("libm.so.6", "/usr/lib/libm.so")
	cfg := oci.ImageConfig{
		Architecture: "amd64",
		OS:           "linux",
		Config: oci.ExecConfig{
			Env:    []string{"PATH=/usr/bin:/bin"},
			Labels: map[string]string{},
		},
	}
	if role != "" {
		cfg.Config.Labels[RoleLabel] = role
	}
	desc, err := oci.WriteImage(repo.Store, cfg, []*fsim.FS{fs})
	if err != nil {
		t.Fatal(err)
	}
	repo.Tag(tag, desc)
}

// testContext returns a build context with a small C project.
func testContext() *fsim.FS {
	ctx := fsim.New()
	ctx.WriteFile("/src/main.c", []byte("int main(){return 0;}\n"), 0o644)
	ctx.WriteFile("/src/util.c", []byte("double sq(double x){return x*x;}\n"), 0o644)
	return ctx
}

func newBuilder(t *testing.T) *Builder {
	t.Helper()
	repo := oci.NewRepository()
	makeBase(t, repo, "ubuntu:24.04", "")
	makeBase(t, repo, "comt:env", RoleEnv)
	makeBase(t, repo, "comt:base", RoleBase)
	return &Builder{
		Repo:     repo,
		Context:  testContext(),
		Registry: toolchain.GenericRegistry(toolchain.ISAx86),
		Recorder: hijack.NewRecorder(),
	}
}

const twoStage = `
# Two-stage HPC application build (paper Figure 2).
FROM comt:env AS build
COPY /src /app/src
WORKDIR /app/src
RUN gcc -O2 -c main.c && gcc -O2 -c util.c
RUN gcc main.o util.o -lm -o /app/bin/demo

FROM comt:base AS dist
COPY --from=build /app/bin/demo /app/demo
ENV APP_HOME=/app
ENTRYPOINT ["/app/demo"]
`

func TestParseTwoStage(t *testing.T) {
	cf, err := Parse(twoStage)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Stages) != 2 {
		t.Fatalf("stages = %d", len(cf.Stages))
	}
	if cf.Stages[0].Name != "build" || cf.Stages[0].BaseRef != "comt:env" {
		t.Errorf("stage 0 = %+v", cf.Stages[0])
	}
	if cf.Stages[1].Name != "dist" {
		t.Errorf("stage 1 name = %q", cf.Stages[1].Name)
	}
	if _, ok := cf.StageByName("build"); !ok {
		t.Error("StageByName(build) failed")
	}
	if _, ok := cf.StageByName("0"); !ok {
		t.Error("StageByName(0) failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"RUN echo hi\n",                // before FROM
		"FROM a AS b AS c\n",           // malformed FROM
		"BOGUS something\n",            // unknown instruction
		"",                             // no FROM at all
		"FROM x\nFLY me to the moon\n", // unknown instruction mid-file
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded", text)
		}
	}
}

func TestParseContinuations(t *testing.T) {
	cf, err := Parse("FROM x\nRUN gcc -c a.c \\\n    -o a.o\n")
	if err != nil {
		t.Fatal(err)
	}
	raw := cf.Stages[0].Instructions[0].Raw
	if !strings.Contains(raw, "-o a.o") {
		t.Errorf("continuation lost: %q", raw)
	}
}

func TestBuildTwoStage(t *testing.T) {
	b := newBuilder(t)
	cf, err := Parse(twoStage)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.Build(cf, "dist")
	if err != nil {
		t.Fatal(err)
	}
	img, err := oci.LoadImage(b.Repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	// dist has the binary but not the sources or objects.
	if !flat.Exists("/app/demo") {
		t.Error("/app/demo missing from dist")
	}
	if flat.Exists("/app/src/main.c") || flat.Exists("/app/src/main.o") {
		t.Error("build intermediates leaked into dist")
	}
	if got := img.Config.Config.Entrypoint; len(got) != 1 || got[0] != "/app/demo" {
		t.Errorf("Entrypoint = %v", got)
	}
	found := false
	for _, e := range img.Config.Config.Env {
		if e == "APP_HOME=/app" {
			found = true
		}
	}
	if !found {
		t.Errorf("ENV not in config: %v", img.Config.Config.Env)
	}
	// The binary is a linked artifact.
	data, err := flat.ReadFile("/app/demo")
	if err != nil {
		t.Fatal(err)
	}
	art, err := toolchain.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kind != toolchain.KindExecutable || len(art.Sources) != 2 {
		t.Errorf("artifact = %+v", art)
	}
}

func TestHijackerRecordsInEnvStage(t *testing.T) {
	b := newBuilder(t)
	cf, err := Parse(twoStage)
	if err != nil {
		t.Fatal(err)
	}
	buildDesc, err := b.Build(cf, "build")
	if err != nil {
		t.Fatal(err)
	}
	if b.Recorder.Len() != 3 {
		t.Errorf("recorded %d invocations, want 3", b.Recorder.Len())
	}
	// The raw log is inside the build image because its base is an Env image.
	img, err := oci.LoadImage(b.Repo.Store, buildDesc)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	invs, err := hijack.Load(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 3 {
		t.Fatalf("log has %d invocations", len(invs))
	}
	if invs[0].Cwd != "/app/src" || invs[0].Tool() != "gcc" {
		t.Errorf("first invocation = %+v", invs[0])
	}
}

func TestBuildFailsOnCompileError(t *testing.T) {
	b := newBuilder(t)
	cf, err := Parse("FROM comt:env\nRUN gcc -c /missing.c\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(cf, ""); err == nil {
		t.Error("build with missing source succeeded")
	}
}

func TestBuildUnknownCommand(t *testing.T) {
	b := newBuilder(t)
	cf, _ := Parse("FROM comt:env\nRUN cmake --build .\n")
	if _, err := b.Build(cf, ""); err == nil || !strings.Contains(err.Error(), "command not found") {
		t.Errorf("err = %v", err)
	}
}

func TestEnvAndWorkdirAndShellBuiltins(t *testing.T) {
	b := newBuilder(t)
	cf, err := Parse(`FROM comt:env
ENV CC=gcc COPTS=-O3
COPY /src /work/src
WORKDIR /work/src
RUN mkdir -p /out && $CC $COPTS -c main.c -o /out/main.o
RUN cp /out/main.o /out/copy.o && mv /out/copy.o /out/moved.o
RUN cp /out/main.o /out/a.o && cp /out/main.o /out/b.o && mkdir /out/dir && mv /out/a.o /out/b.o /out/dir/ && rm /out/main.o
RUN ln -s /out/moved.o /out/alias.o && touch /out/stamp
`)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.Build(cf, "")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := oci.LoadImage(b.Repo.Store, desc)
	flat, _ := img.Flatten()
	if flat.Exists("/out/main.o") || !flat.Exists("/out/moved.o") {
		t.Error("cp/mv/rm semantics wrong")
	}
	if flat.Exists("/out/a.o") || flat.Exists("/out/b.o") || !flat.Exists("/out/dir/a.o") || !flat.Exists("/out/dir/b.o") {
		t.Errorf("mv of two sources into a directory left %v", flat.Glob("/out/*"))
	}
	if !flat.Exists("/out/stamp") {
		t.Error("touch failed")
	}
	if p, err := flat.ResolveSymlink("/out/alias.o"); err != nil || p != "/out/moved.o" {
		t.Errorf("symlink resolve = %q, %v", p, err)
	}
	// The compiled object reflects the expanded $COPTS.
	data, _ := flat.ReadFile("/out/moved.o")
	art, err := toolchain.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.OptLevel != "3" {
		t.Errorf("OptLevel = %q, want 3 (from $COPTS)", art.OptLevel)
	}
}

func TestAptGetInstall(t *testing.T) {
	b := newBuilder(t)
	idx := dpkg.NewIndex()
	idx.Add(&dpkg.Package{
		Name: "libopenblas", Version: "0.3.26-1", Architecture: "amd64",
		Files: []dpkg.PackageFile{{Path: "/usr/lib/libblas.so", Data: toolchain.LibraryArtifact("libblas", "gnu", toolchain.ISAx86, 1.0, false).Encode(), Mode: 0o644}},
	})
	b.AptIndex = idx
	cf, err := Parse(`FROM comt:env
RUN apt-get update && apt-get install -y libopenblas
COPY /src /s
WORKDIR /s
RUN gcc main.c -lblas -o app
`)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.Build(cf, "")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := oci.LoadImage(b.Repo.Store, desc)
	flat, _ := img.Flatten()
	db, err := dpkg.Load(flat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Installed("libopenblas"); !ok {
		t.Error("package not recorded in dpkg db")
	}
	data, _ := flat.ReadFile("/s/app")
	art, _ := toolchain.Decode(data)
	hasBlas := false
	for _, l := range art.DynamicLibs {
		if strings.Contains(l, "blas") {
			hasBlas = true
		}
	}
	if !hasBlas {
		t.Errorf("app not linked against blas: %v", art.DynamicLibs)
	}
}

func TestAptGetVersionPinning(t *testing.T) {
	b := newBuilder(t)
	idx := dpkg.NewIndex()
	for _, v := range []string{"0.3.25-1", "0.3.26-1"} {
		idx.Add(&dpkg.Package{
			Name: "libopenblas", Version: dpkg.Version(v), Architecture: "amd64",
			Files: []dpkg.PackageFile{{Path: "/usr/lib/libblas.so." + v, Data: []byte(v), Mode: 0o644}},
		})
	}
	b.AptIndex = idx
	cf, err := Parse("FROM comt:env\nRUN apt-get install -y libopenblas=0.3.25-1\n")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.Build(cf, "")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := oci.LoadImage(b.Repo.Store, desc)
	flat, _ := img.Flatten()
	db, err := dpkg.Load(flat)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := db.Installed("libopenblas")
	if !ok || p.Version != "0.3.25-1" {
		t.Errorf("pinned install = %+v, %v", p, ok)
	}
	// A pin to a missing version fails.
	cf, _ = Parse("FROM comt:env\nRUN apt-get install -y libopenblas=9.9-9\n")
	if _, err := b.Build(cf, ""); err == nil {
		t.Error("missing pinned version installed")
	}
}

func TestAptGetMissingPackage(t *testing.T) {
	b := newBuilder(t)
	b.AptIndex = dpkg.NewIndex()
	cf, _ := Parse("FROM comt:env\nRUN apt-get install -y ghost-package\n")
	if _, err := b.Build(cf, ""); err == nil || !strings.Contains(err.Error(), "unable to locate") {
		t.Errorf("err = %v", err)
	}
}

func TestCopyFromRepoImage(t *testing.T) {
	b := newBuilder(t)
	// Prepare an image in the repo holding a data file.
	dataFS := fsim.New()
	dataFS.WriteFile("/data/input.dat", []byte("payload"), 0o644)
	desc, err := oci.WriteImage(b.Repo.Store, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, []*fsim.FS{dataFS})
	if err != nil {
		t.Fatal(err)
	}
	b.Repo.Tag("datasets:v1", desc)
	cf, _ := Parse("FROM comt:base\nCOPY --from=datasets:v1 /data/input.dat /input.dat\n")
	out, err := b.Build(cf, "")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := oci.LoadImage(b.Repo.Store, out)
	flat, _ := img.Flatten()
	if got, _ := flat.ReadFile("/input.dat"); string(got) != "payload" {
		t.Errorf("copied content = %q", got)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	cf, err := Parse(twoStage)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(cf.Render())
	if err != nil {
		t.Fatalf("rendered text does not reparse: %v\n%s", err, cf.Render())
	}
	if len(again.Stages) != len(cf.Stages) {
		t.Fatal("stage count changed")
	}
	for i := range cf.Stages {
		if len(again.Stages[i].Instructions) != len(cf.Stages[i].Instructions) {
			t.Errorf("stage %d instruction count changed", i)
		}
	}
}

func TestFromPriorStage(t *testing.T) {
	b := newBuilder(t)
	cf, err := Parse(`FROM comt:env AS one
RUN mkdir /made-in-one && touch /made-in-one/left-alone

FROM one AS two
RUN touch /made-in-one/mark
`)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.Build(cf, "two")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := oci.LoadImage(b.Repo.Store, desc)
	flat, _ := img.Flatten()
	if !flat.Exists("/made-in-one/mark") {
		t.Error("state from prior stage missing")
	}
	// The second stage commits onto the first stage's image, not its base.
	if !flat.Exists("/made-in-one/left-alone") {
		t.Error("a file of the first stage that the second does not touch is missing from the second's image")
	}
	if got := img.Config.Config.Labels[BaseLayersLabel]; got != "1" {
		t.Errorf("base-layers label = %q, want the first stage's 1", got)
	}
}
