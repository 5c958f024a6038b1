package containerfile

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/oci"
	"comtainer/internal/toolchain"
)

// FuzzParseRender feeds Containerfile text, which comtainer build
// -containerfile reads from a user's file. Nothing panics, and whatever
// Parse accepts renders to text that parses to the same stages and
// instructions; only line numbers move, since Render keeps no comments
// or blank lines. The seed corpus in testdata/fuzz/FuzzParseRender (the
// Table-2 apps' build scripts) runs under plain `go test`.
func FuzzParseRender(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		cf, err := Parse(text)
		if err != nil {
			return
		}
		rendered := cf.Render()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("%q renders to %q, which does not parse: %v", text, rendered, err)
		}
		if got, want := withoutLines(again), withoutLines(cf); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q renders to %q, which parses to\n%+v\nnot\n%+v", text, rendered, got, want)
		}
	})
}

// withoutLines returns cf's stages with every instruction's line number
// zeroed.
func withoutLines(cf *Containerfile) []Stage {
	stages := slices.Clone(cf.Stages)
	for i := range stages {
		stages[i].Instructions = slices.Clone(stages[i].Instructions)
		for j := range stages[i].Instructions {
			stages[i].Instructions[j].Line = 0
		}
	}
	return stages
}

// FuzzBuildReproduces holds the build cache and the shared stage layers
// to a build without them: over one Containerfile, a build with no cache,
// a cold and a warm build into one repository with one BuildCache, and a
// warm build into a fresh repository commit every stage to the same
// digest and the same flattened tree, or fail with the same error. The
// input is decoded by decodeBuild; the named seeds in
// testdata/fuzz/FuzzBuildReproduces — RUNs that change nothing, FROM an
// earlier stage, a COPY --from of a stage's layer verbatim, an ENV
// change, three stages — run under plain `go test`.
func FuzzBuildReproduces(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		text := decodeBuild(in)
		cf, err := Parse(text)
		if err != nil {
			t.Fatalf("decoded %q to %q, which does not parse: %v", in, text, err)
		}
		cache, repo := NewBuildCache(), fuzzRepo(t)
		var want buildOutcome
		for i, run := range []struct {
			name  string
			repo  *oci.Repository
			cache *BuildCache
		}{
			{"no cache", fuzzRepo(t), nil},
			{"cold", repo, cache},
			{"warm", repo, cache},
			{"warm into a fresh repository", fuzzRepo(t), cache},
		} {
			got := buildEveryStage(t, &Builder{
				Repo:     run.repo,
				Context:  fuzzContext(),
				Registry: toolchain.GenericRegistry(toolchain.ISAx86),
				Recorder: hijack.NewRecorder(),
				Cache:    run.cache,
			}, cf)
			if i == 0 {
				want = got
				continue
			}
			if got.err != want.err {
				t.Fatalf("%s build of\n%s\nfailed with %q, the build with no cache with %q", run.name, text, got.err, want.err)
			}
			for j := range want.digests {
				if got.digests[j] != want.digests[j] || !got.flats[j].Equal(want.flats[j]) {
					t.Fatalf("%s build of\n%s\ncommitted stage %d as %s with %v, the build with no cache as %s with %v",
						run.name, text, j, got.digests[j].Short(), got.flats[j].Paths(), want.digests[j].Short(), want.flats[j].Paths())
				}
			}
		}
	})
}

// buildOutcome is what building every stage of a Containerfile gave:
// each stage's image digest and flattened tree up to the first error.
type buildOutcome struct {
	digests []digest.Digest
	flats   []*fsim.FS
	err     string
}

// buildEveryStage builds cf's stages one Build call each, in order.
func buildEveryStage(t *testing.T, b *Builder, cf *Containerfile) buildOutcome {
	var out buildOutcome
	for _, st := range cf.Stages {
		desc, err := b.Build(cf, st.Name)
		if err != nil {
			out.err = err.Error()
			return out
		}
		img, err := oci.LoadImage(b.Repo.Store, desc)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := img.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		out.digests = append(out.digests, desc.Digest)
		out.flats = append(out.flats, flat)
	}
	return out
}

func fuzzRepo(t *testing.T) *oci.Repository {
	repo := oci.NewRepository()
	makeBase(t, repo, "comt:env", RoleEnv)
	makeBase(t, repo, "comt:base", RoleBase)
	return repo
}

func fuzzContext() *fsim.FS {
	ctx := testContext()
	blob := make([]byte, 8<<10)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	ctx.WriteFile("/data/blob", blob, 0o644)
	ctx.WriteFile("/data/readme", []byte("inputs\n"), 0o644)
	return ctx
}

// decodeBuild turns fuzz input into a Containerfile of up to 24
// instructions in one to three stages, s0 to s2, over fuzzContext. Each
// line is an operation letter and its argument; a line with any other
// letter is dropped, and a file of one stage gets a second, FROM s0:
//
//	F<base>  a new stage FROM <base> when it names an earlier stage,
//	         FROM comt:base for "base", FROM comt:env otherwise
//	r, e<a>  RUN true, RUN echo <a>
//	t<n>     RUN touch /t/<n>
//	m<n>     RUN mkdir -p /d/<n>
//	x<p>     RUN rm -f /<p>
//	c<n>     COPY /src /c/<n>
//	d<n>     COPY /data /c/<n>
//	k<i><p>  COPY --from=s<i> /<p> /<p>, when s<i> is an earlier stage
//	v<a>     ENV V=<a>
//	w<n>     WORKDIR /w/${V}<n>
//
// A name <n> or <a> is one to eight of [a-z0-9]; a path <p> is one or
// two such names. Every file the builtins create has a directory above
// it, so no entry ever lies beneath a file.
func decodeBuild(in string) string {
	var b strings.Builder
	b.WriteString("FROM comt:env AS s0\n")
	stages, n := 1, 0
	for _, line := range strings.Split(in, "\n") {
		if line == "" || n == 24 {
			continue
		}
		op, arg := line[0], line[1:]
		switch op {
		case 'F':
			if stages == 3 {
				continue
			}
			base := "comt:env"
			if arg == "base" {
				base = "comt:base"
			} else if len(arg) == 2 && arg[0] == 's' && arg[1] >= '0' && int(arg[1]-'0') < stages {
				base = arg
			}
			fmt.Fprintf(&b, "FROM %s AS s%d\n", base, stages)
			stages++
			continue
		case 'r':
			b.WriteString("RUN true\n")
		case 'e':
			fmt.Fprintf(&b, "RUN echo %s\n", fuzzPath(arg, 1))
		case 't':
			fmt.Fprintf(&b, "RUN touch /t/%s\n", fuzzPath(arg, 1))
		case 'm':
			fmt.Fprintf(&b, "RUN mkdir -p /d/%s\n", fuzzPath(arg, 1))
		case 'x':
			fmt.Fprintf(&b, "RUN rm -f /%s\n", fuzzPath(arg, 2))
		case 'c':
			fmt.Fprintf(&b, "COPY /src /c/%s\n", fuzzPath(arg, 1))
		case 'd':
			fmt.Fprintf(&b, "COPY /data /c/%s\n", fuzzPath(arg, 1))
		case 'k':
			if arg == "" || arg[0] < '0' || int(arg[0]-'0') >= stages {
				continue
			}
			p := fuzzPath(arg[1:], 2)
			fmt.Fprintf(&b, "COPY --from=s%c /%s /%s\n", arg[0], p, p)
		case 'v':
			fmt.Fprintf(&b, "ENV V=%s\n", fuzzPath(arg, 1))
		case 'w':
			fmt.Fprintf(&b, "WORKDIR /w/${V}%s\n", fuzzPath(arg, 1))
		default:
			continue
		}
		n++
	}
	if stages == 1 {
		b.WriteString("FROM s0 AS s1\n")
	}
	return b.String()
}

// fuzzPath keeps the first max '/'-separated names of s, each cut to
// [a-z0-9] and eight bytes; it is "x" when none is left.
func fuzzPath(s string, max int) string {
	var names []string
	for _, name := range strings.Split(s, "/") {
		name = strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
				return r
			}
			return -1
		}, name)
		if name == "" {
			continue
		}
		names = append(names, name[:min(len(name), 8)])
		if len(names) == max {
			break
		}
	}
	if len(names) == 0 {
		return "x"
	}
	return strings.Join(names, "/")
}
