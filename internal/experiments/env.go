// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): the testbed and workload tables (1, 2), the LULESH
// motivation study (Fig. 3), performance retention across all workloads
// and schemes (Fig. 9), relative time with LTO+PGO (Fig. 10), image and
// cache sizes (Table 3) and the cross-ISA study (Fig. 11).
//
// Everything is driven through the real pipeline: images are built with
// the Containerfile engine, extended by the front-end, rebuilt/redirected
// by the backend with adapters, and executed by chrun — a scheme gets its
// performance only if the corresponding transformation actually happened.
package experiments

import (
	"fmt"
	"sync"

	"comtainer/internal/chrun"
	"comtainer/internal/core"
	"comtainer/internal/core/adapter"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/workloads"
)

// Schemes of the evaluation (§5.1.3), in presentation order.
const (
	SchemeOriginal  = "original"
	SchemeNative    = "native"
	SchemeAdapted   = "adapted"
	SchemeOptimized = "optimized"
)

// Environment caches the expensive per-(system, app) pipeline work so the
// figures can share it. It is safe for concurrent use; distinct pipelines
// build in parallel.
type Environment struct {
	mu        sync.Mutex
	pipelines map[string]*pipelineEntry
}

// pipelineEntry builds its pipeline exactly once, without holding the
// environment lock.
type pipelineEntry struct {
	once sync.Once
	p    *pipeline
	err  error
}

// NewEnvironment returns an empty experiment environment.
func NewEnvironment() *Environment {
	return &Environment{pipelines: make(map[string]*pipelineEntry)}
}

// pipeline holds everything needed to time one app's schemes on one
// system: the pulled images, the adapted image, and the native build.
// The mutex serializes operations that mutate the system repository's
// tags (PGO loops, Figure-3 stage rebuilds).
type pipeline struct {
	mu      sync.Mutex
	sys     *sysprofile.System
	system  *core.SystemSide
	app     *workloads.App
	distTag string

	origDesc    oci.Descriptor
	adaptedDesc oci.Descriptor

	nativeFS  *fsim.FS
	nativeBin string
}

// Pipeline builds (or returns the cached) pipeline for an app on a system.
// Concurrent callers for the same key share one build; different keys
// build in parallel.
func (e *Environment) Pipeline(sysName, appName string) (*pipeline, error) {
	key := sysName + "/" + appName
	e.mu.Lock()
	entry, ok := e.pipelines[key]
	if !ok {
		entry = &pipelineEntry{}
		e.pipelines[key] = entry
	}
	e.mu.Unlock()
	entry.once.Do(func() {
		entry.p, entry.err = buildPipeline(sysName, appName)
	})
	return entry.p, entry.err
}

// buildPipeline does the heavy per-(system, app) work.
func buildPipeline(sysName, appName string) (*pipeline, error) {
	sys, err := sysprofile.ByName(sysName)
	if err != nil {
		return nil, err
	}
	app, err := workloads.Find(appName)
	if err != nil {
		return nil, err
	}

	user, err := core.NewUserSide(sys.ISA)
	if err != nil {
		return nil, err
	}
	// The conventional generic image (original scheme)...
	orig, err := user.BuildOriginal(app)
	if err != nil {
		return nil, fmt.Errorf("experiments: original build of %s: %w", appName, err)
	}
	origDesc, err := user.Repo.Resolve(orig.DistTag)
	if err != nil {
		return nil, err
	}
	origTag := appName + ".orig"
	user.Repo.Tag(origTag, origDesc)
	// ...then the coMtainer extended image (reuses the dist tag).
	ext, err := user.BuildExtended(app)
	if err != nil {
		return nil, fmt.Errorf("experiments: extended build of %s: %w", appName, err)
	}

	system, err := core.NewSystemSide(sys)
	if err != nil {
		return nil, err
	}
	if err := system.Pull(user.Repo, origTag); err != nil {
		return nil, err
	}
	if err := system.Pull(user.Repo, ext.ExtendedTag); err != nil {
		return nil, err
	}
	adaptedTag, err := system.Adapt(ext.DistTag, adapter.DefaultAdapted())
	if err != nil {
		return nil, fmt.Errorf("experiments: adapting %s on %s: %w", appName, sysName, err)
	}
	adaptedDesc, err := system.Repo.Resolve(adaptedTag)
	if err != nil {
		return nil, err
	}

	nativeFS, nativeBin, err := core.NativeBuild(sys, app)
	if err != nil {
		return nil, fmt.Errorf("experiments: native build of %s on %s: %w", appName, sysName, err)
	}

	p := &pipeline{
		sys:         sys,
		system:      system,
		app:         app,
		distTag:     ext.DistTag,
		origDesc:    origDesc,
		adaptedDesc: adaptedDesc,
		nativeFS:    nativeFS,
		nativeBin:   nativeBin,
	}
	return p, nil
}

// SchemeSet holds the four execution times of one workload.
type SchemeSet struct {
	Original  float64
	Native    float64
	Adapted   float64
	Optimized float64
}

// Get returns the time of a named scheme.
func (s SchemeSet) Get(scheme string) (float64, error) {
	switch scheme {
	case SchemeOriginal:
		return s.Original, nil
	case SchemeNative:
		return s.Native, nil
	case SchemeAdapted:
		return s.Adapted, nil
	case SchemeOptimized:
		return s.Optimized, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
}

// runImage executes an image descriptor from the pipeline's system store.
// The caller holds p.mu.
func (p *pipeline) runImage(desc oci.Descriptor, ref workloads.Ref, nodes int) (float64, error) {
	img, err := oci.LoadImage(p.system.Repo.Store, desc)
	if err != nil {
		return 0, err
	}
	res, err := chrun.RunImage(p.sys, ref, img, nodes)
	if err != nil {
		return 0, err
	}
	return res.Seconds, nil
}

// SchemeTimes measures all four schemes for one workload at a node count.
// The optimized scheme runs the full LTO + automated-PGO feedback loop,
// training the profile on the same workload. The loop rewrites the
// pipeline's redirect tag, so refs of the same app serialize here while
// different apps proceed in parallel.
func (e *Environment) SchemeTimes(sysName string, ref workloads.Ref, nodes int) (SchemeSet, error) {
	p, err := e.Pipeline(sysName, ref.App.Name)
	if err != nil {
		return SchemeSet{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out SchemeSet
	if out.Original, err = p.runImage(p.origDesc, ref, nodes); err != nil {
		return SchemeSet{}, fmt.Errorf("experiments: %s original: %w", ref.ID(), err)
	}
	nat, err := chrun.RunFS(p.sys, ref, p.nativeFS, p.nativeBin, nodes)
	if err != nil {
		return SchemeSet{}, fmt.Errorf("experiments: %s native: %w", ref.ID(), err)
	}
	out.Native = nat.Seconds
	if out.Adapted, err = p.runImage(p.adaptedDesc, ref, nodes); err != nil {
		return SchemeSet{}, fmt.Errorf("experiments: %s adapted: %w", ref.ID(), err)
	}
	// Optimized: LTO plus the PGO loop trained on this workload.
	if err := p.system.PGOLoop(p.distTag, adapter.DefaultOptimized(), ref, nodes); err != nil {
		return SchemeSet{}, fmt.Errorf("experiments: %s PGO loop: %w", ref.ID(), err)
	}
	optRes, err := p.system.Run(p.distTag+".redirect", ref, nodes)
	if err != nil {
		return SchemeSet{}, fmt.Errorf("experiments: %s optimized: %w", ref.ID(), err)
	}
	out.Optimized = optRes.Seconds
	return out, nil
}
