package main

import (
	"context"
	"fmt"
	"math/rand"

	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/digest"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/workloads"
)

// runNodes is the node count of the simulated run, the paper's
// Figure 9 scale.
const runNodes = 16

// synthApps are the three large images. On the Table-2 images alone a
// cold and a warm adapt cost the same few milliseconds, so no layer
// shows; each of these loads one group of layers:
//
//   - synth-wide: many small translation units behind a Makefile, so
//     per-action costs (action cache, lease round trips) dominate;
//   - synth-bulk: a few units and a large data file, so byte-moving
//     layers (tarfs, digest, store I/O, HTTP relay) dominate;
//   - synth-big: many units built by one RUN line each plus bulk data,
//     so layer stacking (containerfile cache, fsim apply, flatten)
//     dominates.
func synthApps() []*workloads.App {
	mpi := []string{"libopenmpi3"}
	fft := []string{"libopenmpi3", "libfftw3-double3"}
	return []*workloads.App{
		{Name: "synth-wide", Language: "c", SrcMiB: 2048, NumSrcFiles: 192, UseMake: true,
			Libs: []string{"m", "mpi"}, BuildPkgs: mpi, RuntimePkgs: mpi},
		{Name: "synth-bulk", Language: "c", SrcMiB: 8, NumSrcFiles: 8, DataMiB: 8192,
			Libs: []string{"m", "mpi"}, BuildPkgs: mpi, RuntimePkgs: mpi},
		{Name: "synth-big", Language: "c++", SrcMiB: 4096, NumSrcFiles: 128, DataMiB: 4096,
			Libs: []string{"m", "mpi", "fftw3"}, BuildPkgs: fft, RuntimePkgs: fft},
	}
}

// image is one corpus entry: an application and its extended image in
// the corpus repository.
type image struct {
	app *workloads.App
	// ref is the Table-2 workload the adapted image is run for; nil
	// for a synthetic image, which has no calibrated traits.
	ref *workloads.Ref
	res core.BuildResult
	// manifest is the extended image's manifest digest, the reference
	// for everything pushed and pulled.
	manifest digest.Digest
}

func (im *image) name() string { return im.app.Name }

// reference is what one plain local adapt of an image produced: no
// action cache, no farm, no proxy. Every measured adapt must match it.
type reference struct {
	rebuilt    digest.Digest // +coMre manifest
	redirect   digest.Digest // .redirect manifest
	runSeconds float64
	// system keeps the reference pass's store for the probes.
	system *core.SystemSide
}

// corpus is the set of images every workload draws from: the 11
// Table-2 applications and the three synthetic ones, built once on one
// user side. 11 small and 3 large puts the median op inside the small
// cluster and the 90th percentile inside the large one.
type corpus struct {
	sys    *sysprofile.System
	user   *core.UserSide
	images []*image
	// refs is filled by adaptReferences, for the workloads that adapt.
	refs map[string]*reference
}

// corpusApps is the corpus of a run: the Table-2 applications, then
// the synthetic ones.
func corpusApps() []*workloads.App {
	return append(append([]*workloads.App{}, workloads.Apps()...), synthApps()...)
}

// buildCorpus builds the extended image of every application on one
// user side.
func buildCorpus(apps []*workloads.App) (*corpus, error) {
	sys := sysprofile.X86Cluster()
	user, err := core.NewUserSide(sys.ISA)
	if err != nil {
		return nil, fmt.Errorf("corpus user side: %w", err)
	}
	c := &corpus{sys: sys, user: user}
	refs := map[string]workloads.Ref{}
	for _, r := range workloads.AllRefs() {
		if _, ok := refs[r.App.Name]; !ok {
			refs[r.App.Name] = r
		}
	}
	for _, app := range apps {
		res, err := user.BuildExtended(app)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", app.Name, err)
		}
		desc, err := user.Repo.Resolve(res.ExtendedTag)
		if err != nil {
			return nil, fmt.Errorf("resolving %s: %w", res.ExtendedTag, err)
		}
		im := &image{app: app, res: res, manifest: desc.Digest}
		if r, ok := refs[app.Name]; ok {
			im.ref = &r
		}
		c.images = append(c.images, im)
	}
	return c, nil
}

// order is round k's permutation of the corpus under seed.
func (c *corpus) order(seed int64, k int) []*image {
	out := append([]*image(nil), c.images...)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// adapted is what one adapt op produced.
type adapted struct {
	rebuilt    digest.Digest
	redirect   digest.Digest
	runSeconds float64
}

// adapt is the system-side façade op: pull from the corpus repository
// in process, rebuild with the default adapter chain, redirect, and —
// for images that have a Table-2 workload — run.
func adapt(ctx context.Context, c *corpus, system *core.SystemSide, im *image) (adapted, error) {
	var out adapted
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if err := system.Pull(c.user.Repo, im.res.ExtendedTag); err != nil {
		return out, fmt.Errorf("pull: %w", err)
	}
	//comtainer:allow ctxflow -- the op under test is the ctx-free façade core.SystemSide offers; an interrupt is seen between ops, and one rebuild is bounded by its own work
	desc, _, err := system.Rebuild(im.res.DistTag, adapter.DefaultAdapted(), nil)
	if err != nil {
		return out, fmt.Errorf("rebuild: %w", err)
	}
	out.rebuilt = desc.Digest
	rd, err := system.Redirect(im.res.DistTag)
	if err != nil {
		return out, fmt.Errorf("redirect: %w", err)
	}
	out.redirect = rd.Digest
	if im.ref != nil {
		run, err := system.Run(im.res.DistTag+".redirect", *im.ref, runNodes)
		if err != nil {
			return out, fmt.Errorf("run: %w", err)
		}
		out.runSeconds = run.Seconds
	}
	return out, nil
}

// adaptReferences computes the oracle's reference for every image.
func (c *corpus) adaptReferences(ctx context.Context) error {
	c.refs = map[string]*reference{}
	for _, im := range c.images {
		system, err := core.NewSystemSide(c.sys)
		if err != nil {
			return fmt.Errorf("reference system side: %w", err)
		}
		got, err := adapt(ctx, c, system, im)
		if err != nil {
			return fmt.Errorf("reference adapt of %s: %w", im.name(), err)
		}
		c.refs[im.name()] = &reference{rebuilt: got.rebuilt, redirect: got.redirect, runSeconds: got.runSeconds, system: system}
	}
	return nil
}

// failure is one op that errored or failed verification.
type failure struct {
	Image string `json:"image"`
	Step  string `json:"step"`
	Msg   string `json:"msg"`
}

// checkAdapted compares an adapt op's result with the reference
// (DESIGN.md §5: a rebuild is digest-identical however it executed).
func (c *corpus) checkAdapted(im *image, got adapted) []failure {
	want, ok := c.refs[im.name()]
	if !ok {
		return []failure{{im.name(), "oracle", "no reference"}}
	}
	var out []failure
	if got.rebuilt != want.rebuilt {
		out = append(out, failure{im.name(), "rebuild", fmt.Sprintf("+coMre %s, reference %s", got.rebuilt.Short(), want.rebuilt.Short())})
	}
	if got.redirect != want.redirect {
		out = append(out, failure{im.name(), "redirect", fmt.Sprintf(".redirect %s, reference %s", got.redirect.Short(), want.redirect.Short())})
	}
	if got.runSeconds != want.runSeconds {
		out = append(out, failure{im.name(), "run", fmt.Sprintf("%v simulated seconds, reference %v", got.runSeconds, want.runSeconds)})
	}
	return out
}

// checkPulled verifies an image in a destination repository: the tag
// resolves to the reference manifest and every blob the manifest names
// is present with the size and content its digest promises.
func checkPulled(repo *oci.Repository, tag, image string, want digest.Digest) []failure {
	desc, err := repo.Resolve(tag)
	if err != nil {
		return []failure{{image, "manifest", err.Error()}}
	}
	if desc.Digest != want {
		return []failure{{image, "manifest", fmt.Sprintf("pulled %s, reference %s", desc.Digest.Short(), want.Short())}}
	}
	m, err := oci.LoadManifest(repo.Store, desc.Digest)
	if err != nil {
		return []failure{{image, "manifest", err.Error()}}
	}
	var out []failure
	for _, d := range append([]oci.Descriptor{desc, m.Config}, m.Layers...) {
		b, err := repo.Store.Get(d.Digest)
		switch {
		case err != nil:
			out = append(out, failure{image, "blob", err.Error()})
		case int64(len(b)) != d.Size && d.Size != 0:
			out = append(out, failure{image, "blob", fmt.Sprintf("%s is %d bytes, descriptor says %d", d.Digest.Short(), len(b), d.Size)})
		case digest.FromBytes(b) != d.Digest:
			out = append(out, failure{image, "blob", fmt.Sprintf("%s content hashes to %s", d.Digest.Short(), digest.FromBytes(b).Short())})
		}
	}
	return out
}

// failedOps is the number of distinct images named in one round's
// failures: an op with several wrong outputs is one failed op.
func failedOps(fails []failure) int {
	seen := map[string]bool{}
	for _, f := range fails {
		seen[f.Image] = true
	}
	return len(seen)
}
