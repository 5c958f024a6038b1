package containerfile

import (
	"strings"
	"testing"

	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
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

// TestBuildSeesContextChangedBetweenCalls: the context is hashed once per
// Build call, so a builder whose Context changes between two calls keys
// the second call's COPYs by the new content.
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
