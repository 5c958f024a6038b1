// Package backend implements coMtainer's system side (paper §4.1/§4.2,
// right half of Figure 5): the *rebuild* step re-executes the cached build
// graph inside a Sysenv-based container with system-specific adaptations
// and appends the results as a rebuild layer (+coMre); the *redirect* step
// materializes the final optimized image from the Rebase image, the
// system's (vendor-optimized) packages and the rebuilt artifacts.
package backend

import (
	"encoding/json"
	"fmt"

	"sort"

	"comtainer/internal/actioncache"
	"comtainer/internal/core/adapter"
	"comtainer/internal/core/cache"
	"comtainer/internal/core/model"
	"comtainer/internal/dpkg"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// Rebuild layer locations.
const (
	rebuildPrefix = "/.comtainer/rebuild"
	planPath      = rebuildPrefix + "/plan.json"
)

// pkgPlan is one package the redirect step must provide. Without the libo
// adapter the original version is reproduced; with it, the system's
// optimized build replaces it.
type pkgPlan struct {
	Name     string `json:"name"`
	Version  string `json:"version"`
	Optimize bool   `json:"optimize,omitempty"`
}

// plan is what the rebuild step hands to the redirect step.
type plan struct {
	// Files maps dist-image paths to rebuilt content stored under
	// rebuildPrefix in the rebuild layer.
	Files []string `json:"files"`
	// Packages are the runtime packages redirect installs.
	Packages []pkgPlan `json:"packages"`
	// DataFiles are dist paths carried over verbatim (data/unknown
	// origin).
	DataFiles []string          `json:"dataFiles"`
	Report    adapter.Report    `json:"report"`
	Image     model.ImageModel  `json:"imageModel"`
	Installed map[string]string `json:"installed"`
}

// RebuildOptions configures a rebuild. The rebuild container's base is the
// image the repository tags sysprofile.TagSysenv.
type RebuildOptions struct {
	System *sysprofile.System
	// Adapters to apply, in order. Defaults to adapter.DefaultAdapted().
	Adapters []adapter.Adapter
	// Registry overrides the toolchain registry of the rebuild container
	// (defaults to the system's Sysenv registry): the generic toolchain
	// for the library-replacement-only ablation, System.LLVMRegistry for
	// the free toolchain over the same Sysenv image.
	Registry *toolchain.Registry
	// ExtraFiles are placed into the rebuild container before execution
	// (e.g. the PGO profile collected from a trial run).
	ExtraFiles map[string][]byte
	// Memo, when set, replays unchanged build commands from the action
	// cache instead of re-executing them.
	Memo *actioncache.Memoizer
	// Workers bounds concurrent command execution; 0 keeps the default
	// of min(GOMAXPROCS, 8).
	Workers int
	// RemoteExec, when set, routes cache-missed build commands to a
	// remote-execution farm, falling back to local execution on any
	// farm failure.
	RemoteExec *remoteexec.Executor
}

// Rebuild performs coMtainer-rebuild on the extended image derived from
// distTag: adapters transform the models, the build graph re-executes
// under the system toolchain, and the artifacts land in a rebuild layer
// appended to the extended image (tagged +coMre).
func Rebuild(repo *oci.Repository, distTag string, opts RebuildOptions) (oci.Descriptor, *adapter.Report, error) {
	if opts.System == nil {
		return oci.Descriptor{}, nil, fmt.Errorf("backend: rebuild needs a system profile")
	}
	if opts.Adapters == nil {
		opts.Adapters = adapter.DefaultAdapted()
	}
	if opts.Registry == nil {
		opts.Registry = opts.System.Toolchains
	}

	extDesc, err := repo.Resolve(cache.ExtendedTag(distTag))
	if err != nil {
		return oci.Descriptor{}, nil, err
	}
	extImg, err := oci.LoadImage(repo.Store, extDesc)
	if err != nil {
		return oci.Descriptor{}, nil, err
	}
	models, srcFS, err := cache.Read(extImg)
	if err != nil {
		return oci.Descriptor{}, nil, err
	}

	// Adapters operate on an independent copy of the models.
	report := &adapter.Report{}
	ctx := &adapter.Context{
		System: opts.System,
		Models: models.Clone(),
		SrcFS:  srcFS,
		Report: report,
	}
	report.PerAdapter = map[string]int{}
	for _, ad := range opts.Adapters {
		before := report.ChangedCommands
		if err := ad.Apply(ctx); err != nil {
			return oci.Descriptor{}, report, fmt.Errorf("backend: adapter %s: %w", ad.Name(), err)
		}
		report.PerAdapter[ad.Name()] += report.ChangedCommands - before
	}

	// The rebuild container: Sysenv image + cached sources + extras.
	sysenvImg, err := repo.LoadByTag(sysprofile.TagSysenv)
	if err != nil {
		return oci.Descriptor{}, report, fmt.Errorf("backend: loading Sysenv image: %w", err)
	}
	rebuildFS, err := sysenvImg.Flatten()
	if err != nil {
		return oci.Descriptor{}, report, err
	}
	err = srcFS.Walk(func(f *fsim.File) error {
		if f.Type == fsim.TypeRegular {
			rebuildFS.Add(f)
		}
		return nil
	})
	if err != nil {
		return oci.Descriptor{}, report, err
	}
	for p, data := range opts.ExtraFiles {
		rebuildFS.WriteFile(p, data, 0o644)
	}

	if err := executeGraph(ctx.Models.Graph, rebuildFS, opts.Registry, execOptions{workers: opts.Workers, memo: opts.Memo, remote: opts.RemoteExec}); err != nil {
		return oci.Descriptor{}, report, err
	}

	// Collect rebuilt artifacts into the rebuild layer. Every package of
	// the image model is reproduced; the ones the libo adapter scheduled
	// get the system's optimized build instead.
	optimize := map[string]bool{}
	for _, name := range report.PackagePlan {
		optimize[name] = true
	}
	layer := fsim.New()
	pl := plan{
		Report:    *report,
		Image:     ctx.Models.Image,
		Installed: ctx.Models.Installed,
	}
	for _, p := range ctx.Models.Image.Packages {
		pl.Packages = append(pl.Packages, pkgPlan{
			Name:     p.Name,
			Version:  p.Version,
			Optimize: optimize[p.Name],
		})
	}
	var distPaths []string
	for distPath := range ctx.Models.Installed {
		distPaths = append(distPaths, distPath)
	}
	sort.Strings(distPaths)
	for _, distPath := range distPaths {
		buildPath := ctx.Models.Installed[distPath]
		data, err := rebuildFS.ReadFile(buildPath)
		if err != nil {
			return oci.Descriptor{}, report, fmt.Errorf("backend: rebuilt product %s missing: %w", buildPath, err)
		}
		layer.Add(&fsim.File{Path: rebuildPrefix + distPath, Mode: 0o755, Data: data})
		pl.Files = append(pl.Files, distPath)
	}
	for _, fe := range ctx.Models.Image.Files {
		if fe.Origin == model.OriginData || fe.Origin == model.OriginUnknown {
			pl.DataFiles = append(pl.DataFiles, fe.Path)
		}
	}
	blob, err := json.MarshalIndent(pl, "", " ")
	if err != nil {
		return oci.Descriptor{}, report, fmt.Errorf("backend: encoding plan: %w", err)
	}
	layer.WriteFile(planPath, blob, 0o644)

	rebuilt, err := oci.AppendLayer(repo.Store, extDesc, layer, cache.RoleRebuild, "coMtainer rebuild layer")
	if err != nil {
		return oci.Descriptor{}, report, err
	}
	repo.Tag(cache.RebuiltTag(distTag), rebuilt)
	return rebuilt, report, nil
}

// RedirectOptions configures a redirect. The redirect container's base is
// the image the repository tags sysprofile.TagRebase.
type RedirectOptions struct {
	System *sysprofile.System
	// OptimizedTag is the tag given to the final image; defaults to
	// distTag + ".redirect".
	OptimizedTag string
}

// Redirect performs coMtainer-redirect: it creates a fresh container from
// the Rebase image, installs the (vendor-preferring) runtime packages,
// extracts the rebuilt artifacts and carried data, and commits the final
// optimized image.
func Redirect(repo *oci.Repository, distTag string, opts RedirectOptions) (oci.Descriptor, error) {
	if opts.System == nil {
		return oci.Descriptor{}, fmt.Errorf("backend: redirect needs a system profile")
	}
	if opts.OptimizedTag == "" {
		opts.OptimizedTag = distTag + ".redirect"
	}
	rebuiltImg, err := repo.LoadByTag(cache.RebuiltTag(distTag))
	if err != nil {
		return oci.Descriptor{}, fmt.Errorf("backend: redirect needs a rebuilt image (+coMre): %w", err)
	}
	flat, err := rebuiltImg.Flatten()
	if err != nil {
		return oci.Descriptor{}, err
	}
	blob, err := flat.ReadFile(planPath)
	if err != nil {
		return oci.Descriptor{}, fmt.Errorf("backend: rebuilt image carries no plan: %w", err)
	}
	var pl plan
	if err := json.Unmarshal(blob, &pl); err != nil {
		return oci.Descriptor{}, fmt.Errorf("backend: decoding plan: %w", err)
	}

	rebaseImg, err := repo.LoadByTag(sysprofile.TagRebase)
	if err != nil {
		return oci.Descriptor{}, fmt.Errorf("backend: loading Rebase image: %w", err)
	}
	redirectFS, err := rebaseImg.Flatten()
	if err != nil {
		return oci.Descriptor{}, err
	}
	baseState := redirectFS.Clone()

	// Install the runtime dependencies. Packages the libo adapter marked
	// come as the system's optimized builds; the rest are reproduced at
	// their original versions (or carried from the image when the system
	// repository cannot serve them).
	db, err := dpkg.Load(redirectFS)
	if err != nil {
		return oci.Descriptor{}, err
	}
	fullIdx := opts.System.AptIndex()
	// Version pins: packages not scheduled for optimized replacement keep
	// their exact image versions, including when pulled in transitively.
	pins := map[string]dpkg.Version{}
	for _, want := range pl.Packages {
		if !want.Optimize {
			pins[want.Name] = dpkg.Version(want.Version)
		}
	}
	pinnedIdx := fullIdx.Pinned(pins)
	for _, want := range pl.Packages {
		var p *dpkg.Package
		ok := false
		idx := pinnedIdx
		if want.Optimize {
			idx = fullIdx
			p, ok = idx.Latest(want.Name)
		} else {
			p, ok = idx.Find(dpkg.Dependency{Name: want.Name, Op: dpkg.OpEQ, Version: dpkg.Version(want.Version)})
		}
		if !ok {
			// Not served by the system: carry the image's own copy.
			if err := carryPackage(flat, redirectFS, &pl.Image, want.Name); err != nil {
				return oci.Descriptor{}, err
			}
			continue
		}
		if cur, installed := db.Installed(want.Name); installed && !cur.Version.Less(p.Version) {
			continue
		}
		if err := db.InstallWithDeps(redirectFS, idx, p); err != nil {
			return oci.Descriptor{}, fmt.Errorf("backend: installing %s: %w", want.Name, err)
		}
	}

	// Rebuilt artifacts at their original dist paths.
	for _, distPath := range pl.Files {
		data, err := flat.ReadFile(rebuildPrefix + distPath)
		if err != nil {
			return oci.Descriptor{}, err
		}
		redirectFS.Add(&fsim.File{Path: distPath, Mode: 0o755, Data: data})
	}
	// Platform-independent data carried verbatim from the dist image.
	for _, p := range pl.DataFiles {
		if f, err := flat.Stat(p); err == nil {
			redirectFS.Add(f)
		}
	}

	// Commit: Rebase layers + one diff layer; runtime config carried from
	// the dist image.
	var layers []*fsim.FS
	if diff := fsim.Diff(baseState, redirectFS); diff.Len() > 0 {
		layers = append(layers, diff)
	}
	cfg := oci.ImageConfig{
		Architecture: rebaseImg.Config.Architecture,
		OS:           "linux",
		Config:       rebuiltImg.Config.Config,
	}
	cfg.History = append(cfg.History, oci.HistoryEntry{
		CreatedBy: "coMtainer-redirect",
		Comment:   fmt.Sprintf("optimized for %s", opts.System.Name),
	})
	desc, err := oci.WriteDerivedImage(repo.Store, cfg, rebaseImg, layers)
	if err != nil {
		return oci.Descriptor{}, err
	}
	repo.Tag(opts.OptimizedTag, desc)
	return desc, nil
}

// carryPackage copies a package's files from the dist image into the
// redirect container when the system repository cannot serve it.
func carryPackage(distFlat, redirectFS *fsim.FS, im *model.ImageModel, name string) error {
	copied := 0
	for _, fe := range im.Files {
		if fe.Package != name {
			continue
		}
		f, err := distFlat.Stat(fe.Path)
		if err != nil {
			continue
		}
		redirectFS.Add(f)
		copied++
	}
	if copied == 0 {
		return fmt.Errorf("backend: package %s unavailable on the system and absent from the image", name)
	}
	return nil
}
