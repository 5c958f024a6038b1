package containerfile

import (
	"runtime"
	"strings"
	"testing"

	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/tarfs"
	"comtainer/internal/toolchain"
)

func TestPerInstructionLayers(t *testing.T) {
	b := newBuilder(t)
	cf, err := Parse(twoStage)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.Build(cf, "build")
	if err != nil {
		t.Fatal(err)
	}
	img, err := oci.LoadImage(b.Repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	// build stage: base(1) + COPY + RUN + RUN + raw-log = 5 layers.
	// (WORKDIR creates a dir, folded into the next cut? No — WORKDIR is
	// metadata-only here because /app/src already exists after COPY.)
	if got := len(img.Manifest.Layers); got != 5 {
		var kinds []string
		for _, h := range img.Config.History {
			kinds = append(kinds, h.CreatedBy)
		}
		t.Errorf("layers = %d, history = %v", got, kinds)
	}
	if img.Config.Config.Labels[BaseLayersLabel] != "1" {
		t.Errorf("base-layers label = %q", img.Config.Config.Labels[BaseLayersLabel])
	}
	// History names the instructions.
	joined := ""
	for _, h := range img.Config.History {
		joined += h.CreatedBy + "\n"
	}
	for _, want := range []string{"COPY /src /app/src", "RUN gcc -O2 -c main.c", "coMtainer raw build log"} {
		if !strings.Contains(joined, want) {
			t.Errorf("history missing %q:\n%s", want, joined)
		}
	}
}

func TestBuildCacheHitsAndReplay(t *testing.T) {
	cache := NewBuildCache()
	build := func() (*Builder, oci.Descriptor) {
		b := newBuilder(t)
		b.Cache = cache
		cf, err := Parse(twoStage)
		if err != nil {
			t.Fatal(err)
		}
		desc, err := b.Build(cf, "build")
		if err != nil {
			t.Fatal(err)
		}
		return b, desc
	}
	b1, d1 := build()
	hits, misses := cache.Stats()
	if hits != 0 || misses == 0 {
		t.Errorf("first build: hits=%d misses=%d", hits, misses)
	}
	invs1 := b1.Recorder.Len()

	b2, d2 := build()
	hits2, _ := cache.Stats()
	if hits2 == 0 {
		t.Error("second build had no cache hits")
	}
	// The cached build reproduces the image bit-for-bit...
	if d1.Digest != d2.Digest {
		t.Error("cached rebuild produced a different image")
	}
	// ...including the replayed hijacker log.
	if b2.Recorder.Len() != invs1 {
		t.Errorf("replayed %d invocations, want %d", b2.Recorder.Len(), invs1)
	}
	img, err := oci.LoadImage(b2.Repo.Store, d2)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	logged, err := hijack.Load(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != invs1 {
		t.Errorf("raw log has %d invocations, want %d", len(logged), invs1)
	}
}

func TestBuildCacheInvalidatedByContextChange(t *testing.T) {
	cache := NewBuildCache()
	run := func(mainBody string) oci.Descriptor {
		b := newBuilder(t)
		b.Cache = cache
		b.Context = fsim.New()
		b.Context.WriteFile("/src/main.c", []byte(mainBody), 0o644)
		b.Context.WriteFile("/src/util.c", []byte("double sq(double x){return x*x;}\n"), 0o644)
		cf, err := Parse(twoStage)
		if err != nil {
			t.Fatal(err)
		}
		desc, err := b.Build(cf, "build")
		if err != nil {
			t.Fatal(err)
		}
		return desc
	}
	d1 := run("int main(){return 0;}\n")
	d2 := run("int main(){return 1;}\n")
	if d1.Digest == d2.Digest {
		t.Error("changed context produced the same image (stale cache)")
	}
}

// TestBuildSeesContextChangedBetweenCalls: a COPY from the context is
// keyed by the layer it cuts, so a builder whose Context changes between
// two calls keys the second call's COPYs by the new content.
func TestBuildSeesContextChangedBetweenCalls(t *testing.T) {
	b := newBuilder(t)
	b.Cache = NewBuildCache()
	var digests []string
	for _, body := range []string{"int main(){return 0;}\n", "int main(){return 1;}\n"} {
		b.Context = fsim.New()
		b.Context.WriteFile("/src/main.c", []byte(body), 0o644)
		b.Context.WriteFile("/src/util.c", []byte("double sq(double x){return x*x;}\n"), 0o644)
		cf, err := Parse(twoStage)
		if err != nil {
			t.Fatal(err)
		}
		desc, err := b.Build(cf, "build")
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, string(desc.Digest))
	}
	if digests[0] == digests[1] {
		t.Error("the second Build served the first context's COPY from the cache")
	}
}

func TestBuildCacheInvalidatedByEnvChange(t *testing.T) {
	cache := NewBuildCache()
	run := func(opt string) *toolchain.Artifact {
		b := newBuilder(t)
		b.Cache = cache
		cf, err := Parse(`FROM comt:env
ENV COPT=` + opt + `
COPY /src /w
WORKDIR /w
RUN gcc $COPT -c main.c -o main.o
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
		data, err := flat.ReadFile("/w/main.o")
		if err != nil {
			t.Fatal(err)
		}
		art, err := toolchain.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	if run("-O1").OptLevel != "1" {
		t.Error("first build wrong")
	}
	if got := run("-O3").OptLevel; got != "3" {
		t.Errorf("env change served stale object: OptLevel = %q", got)
	}
}

func TestRunLocalCd(t *testing.T) {
	// cd inside a RUN must not leak into the next instruction (each RUN
	// is a fresh shell, as in real builders).
	b := newBuilder(t)
	cf, err := Parse(`FROM comt:env
COPY /src /w/src
WORKDIR /w
RUN mkdir /elsewhere && cd /elsewhere && touch here.txt
RUN touch after.txt
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
	if !flat.Exists("/elsewhere/here.txt") {
		t.Error("cd within RUN did not apply")
	}
	if flat.Exists("/elsewhere/after.txt") {
		t.Error("cd leaked across RUN instructions")
	}
	if !flat.Exists("/w/after.txt") {
		t.Error("WORKDIR not restored for the second RUN")
	}
}

// TestBuildCacheReproducesNoopInstructions: an instruction that changes
// nothing adds no layer, whether it ran or came from the cache.
func TestBuildCacheReproducesNoopInstructions(t *testing.T) {
	cache := NewBuildCache()
	var digests []string
	for _, round := range []string{"cold", "warm"} {
		b := newBuilder(t)
		b.Cache = cache
		cf, err := Parse("FROM comt:env\nRUN true\nRUN apt-get update\nCOPY /src /app/src\nRUN touch /app/done\n")
		if err != nil {
			t.Fatal(err)
		}
		desc, err := b.Build(cf, "")
		if err != nil {
			t.Fatal(err)
		}
		img, err := oci.LoadImage(b.Repo.Store, desc)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s build: %d layers", round, len(img.Manifest.Layers))
		digests = append(digests, string(desc.Digest))
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Fatal("the warm build had no cache hits")
	}
	if digests[0] != digests[1] {
		t.Error("a cold and a warm build of the same Containerfile committed different images")
	}
}

// TestCopyKeyIsTheCopiedLayer: a COPY from the context is keyed by what
// it copied, so a context file that no COPY reads leaves the RUN after
// it cached.
func TestCopyKeyIsTheCopiedLayer(t *testing.T) {
	cache := NewBuildCache()
	build := func(ctx *fsim.FS) string {
		b := newBuilder(t)
		b.Cache, b.Context = cache, ctx
		cf, err := Parse("FROM comt:env\nCOPY /src /app/src\nRUN touch /app/built\n")
		if err != nil {
			t.Fatal(err)
		}
		desc, err := b.Build(cf, "")
		if err != nil {
			t.Fatal(err)
		}
		return string(desc.Digest)
	}
	first := build(testContext())
	hits0, _ := cache.Stats()
	ctx := testContext()
	ctx.WriteFile("/notes/unread.txt", []byte("no COPY reads this"), 0o644)
	if build(ctx) != first {
		t.Error("a context file no COPY reads changed the image")
	}
	if hits, _ := cache.Stats(); hits-hits0 != 1 {
		t.Errorf("second build: %d cache hits, want 1 (the RUN after the COPY)", hits-hits0)
	}
}

// TestBuildEncodesEachLayerOnce: a layer is encoded and hashed when it
// is cut and at no commit, a stage that copies another stage's layer
// verbatim shares its blob, and a cache hit reuses the layer's
// descriptor, so a build of 4 MiB of data through two stages allocates
// about what one encode of the data's layer does — cold, and warm into
// the same repository, where only the context COPY, which always runs,
// encodes its layer. (The encode is the unit because the race
// detector's instrumentation doubles what a bytes.Buffer allocates.)
func TestBuildEncodesEachLayerOnce(t *testing.T) {
	const size = 4 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	allocated := func(f func() error) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	layer := fsim.New()
	layer.WriteFile("/app/data/input.dat", data, 0o644)
	encode := allocated(func() error {
		_, err := tarfs.Marshal(layer)
		return err
	})
	b := newBuilder(t)
	b.Cache = NewBuildCache()
	b.Context.WriteFile("/data/input.dat", data, 0o644)
	for _, round := range []string{"cold", "warm"} {
		cf, err := Parse("FROM comt:base AS build\nCOPY /data /app/data\n\nFROM comt:base AS dist\nCOPY --from=build /app/data /app/data\n")
		if err != nil {
			t.Fatal(err)
		}
		ratio := allocated(func() error {
			for _, stage := range []string{"build", "dist"} {
				if _, err := b.Build(cf, stage); err != nil {
					return err
				}
			}
			return nil
		}) / encode
		t.Logf("%s build: %.2fx what one encode of the data layer allocates (%.0f bytes)", round, ratio, encode)
		if ratio > 1.5 {
			t.Errorf("%s build allocated %.2fx one encode of its data layer, budget 1.5x", round, ratio)
		}
	}
}
