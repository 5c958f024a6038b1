// Package adapter implements coMtainer's system adapters (paper §4.2):
// plugins that, "akin to compiler optimization passes, operate on
// independent copies of the process models, tailoring transformations to
// specific HPC systems". The built-ins cover the optimizations of the
// paper's evaluation: toolchain retargeting (cxxo), package replacement
// (libo), LTO, PGO, and the §5.5 cross-ISA rebuild.
package adapter

import (
	"fmt"
	"strings"

	"comtainer/internal/cclang"
	"comtainer/internal/core/model"
	"comtainer/internal/fsim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// Report accumulates what the adapters changed — consumed by logs and by
// the Figure-11 script-diff accounting.
type Report struct {
	Notes []string
	// ChangedCommands counts build commands whose argv was rewritten —
	// each corresponds to one build-script line the user would have had
	// to touch by hand.
	ChangedCommands int
	// PerAdapter attributes the changed-command counts to the adapter
	// that made them (filled in by the backend).
	PerAdapter map[string]int `json:",omitempty"`
	// PackagePlan lists the packages the redirect step must install from
	// the system's (vendor-preferring) repository.
	PackagePlan []string
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Context is what an adapter sees: the target system, its own mutable
// copy of the models, the cached sources, and the shared report.
type Context struct {
	System *sysprofile.System
	Models *model.Models
	SrcFS  *fsim.FS
	Report *Report
}

// Adapter transforms the process models for a target system.
type Adapter interface {
	Name() string
	Apply(ctx *Context) error
}

// rewriteCommands parses each cc node command, lets fn mutate it, and
// re-renders changed ones, counting distinct rewritten invocations.
func rewriteCommands(ctx *Context, fn func(n *model.Node, cmd *cclang.Command) (bool, error)) error {
	seen := map[int]bool{}
	for _, n := range ctx.Models.Graph.Products() {
		if n.Cmd == nil || n.Cmd.Kind != "cc" || seen[n.Cmd.Seq] {
			continue
		}
		seen[n.Cmd.Seq] = true
		cmd, err := n.Cmd.CC()
		if err != nil {
			return err
		}
		changed, err := fn(n, cmd)
		if err != nil {
			return err
		}
		if changed {
			n.Cmd.Argv = cmd.Render()
			ctx.Report.ChangedCommands++
			// The same CompilationModel pointer may be shared by sibling
			// nodes of a multi-output command; Seq dedup covers it.
		}
	}
	return nil
}

// --- cxxo: toolchain retargeting ---

type toolchainAdapter struct{}

// Toolchain returns the cxxo adapter: compile with the system's dedicated
// toolchain, tuned for the node micro-architecture. The vendor compiler is
// picked up automatically because the Sysenv registry binds the standard
// driver names; the adapter's job is the -march/-mtune retune.
func Toolchain() Adapter { return toolchainAdapter{} }

func (toolchainAdapter) Name() string { return "cxxo" }

func (toolchainAdapter) Apply(ctx *Context) error {
	return rewriteCommands(ctx, func(n *model.Node, cmd *cclang.Command) (bool, error) {
		cmd.SetMarch("native")
		cmd.SetMtune("native")
		return true, nil
	})
}

// --- libo: package replacement ---

type liboAdapter struct{}

// Libo returns the library-replacement adapter: every package in the
// image model that the target system offers an optimized build of is
// scheduled for replacement during redirect.
func Libo() Adapter { return liboAdapter{} }

func (liboAdapter) Name() string { return "libo" }

func (liboAdapter) Apply(ctx *Context) error {
	if ctx.Models.IRLocked() {
		// Paper §4.6: IR-level distribution "limits package replacement
		// flexibility since many packages only guarantee API
		// compatibility. Once compiled, the application becomes tightly
		// coupled with specific package versions."
		ctx.Report.Notef("libo: IR-distributed image is version-locked; keeping original package versions")
		return nil
	}
	idx := ctx.System.AptIndex()
	for _, p := range ctx.Models.Image.Packages {
		latest, ok := idx.Latest(p.Name)
		if !ok {
			ctx.Report.Notef("libo: package %s unknown to the system repository, keeping image copy", p.Name)
			continue
		}
		ctx.Report.PackagePlan = append(ctx.Report.PackagePlan, p.Name)
		if latest.Optimized {
			ctx.Report.Notef("libo: replacing %s %s with optimized %s", p.Name, p.Version, latest.Version)
		}
	}
	return nil
}

// --- lto ---

type ltoAdapter struct{}

// LTO returns the link-time-optimization adapter: every compilation emits
// IR and the final links run whole-program optimization. The explicit
// graph lets coMtainer "flexibly control its scope" (paper §4.4).
func LTO() Adapter { return ltoAdapter{} }

func (ltoAdapter) Name() string { return "lto" }

func (ltoAdapter) Apply(ctx *Context) error {
	tc, ok := ctx.System.Toolchains.Lookup("gcc")
	if !ok || !tc.SupportsLTO {
		return fmt.Errorf("adapter lto: system toolchain does not support LTO")
	}
	return rewriteCommands(ctx, func(n *model.Node, cmd *cclang.Command) (bool, error) {
		if cmd.LTO() {
			return false, nil
		}
		if err := cmd.AddFlag("-flto"); err != nil {
			return false, err
		}
		return true, nil
	})
}

// --- pgo ---

type pgoAdapter struct {
	profilePath string
}

// PGOInstrument returns the first-phase PGO adapter: rebuild with
// instrumentation so a trial run can collect a profile.
func PGOInstrument() Adapter { return pgoAdapter{} }

// PGOUse returns the second-phase PGO adapter: rebuild against the
// collected profile at profilePath (inside the rebuild container).
func PGOUse(profilePath string) Adapter { return pgoAdapter{profilePath: profilePath} }

func (p pgoAdapter) Name() string {
	if p.profilePath == "" {
		return "pgo-instrument"
	}
	return "pgo-use"
}

func (p pgoAdapter) Apply(ctx *Context) error {
	tc, ok := ctx.System.Toolchains.Lookup("gcc")
	if !ok || !tc.SupportsPGO {
		return fmt.Errorf("adapter pgo: system toolchain does not support PGO")
	}
	return rewriteCommands(ctx, func(n *model.Node, cmd *cclang.Command) (bool, error) {
		// Clear any previous phase's flags.
		cmd.RemoveFlag("-fprofile-generate")
		for _, t := range cmd.Render() {
			if strings.HasPrefix(t, "-fprofile-use=") || strings.HasPrefix(t, "-fprofile-generate=") {
				cmd.RemoveFlag(t)
			}
		}
		var flag string
		if p.profilePath == "" {
			flag = "-fprofile-generate"
		} else {
			flag = "-fprofile-use=" + p.profilePath
		}
		if err := cmd.AddFlag(flag); err != nil {
			return false, err
		}
		return true, nil
	})
}

// --- cross-ISA ---

type crossISAAdapter struct{}

// CrossISA returns the §5.5 adapter: it patches the recorded build so an
// extended image produced on one ISA rebuilds on another — dropping
// machine flags the target toolchain rejects and switching guarded
// ISA-specific sources onto their portable fallback path. Sources with
// unguarded (mandatory) ISA-specific code make it fail, exactly like most
// images in the paper's first attempt.
func CrossISA() Adapter { return crossISAAdapter{} }

func (crossISAAdapter) Name() string { return "cross-isa" }

func (crossISAAdapter) Apply(ctx *Context) error {
	target := ctx.System.ISA
	if ctx.Models.BuildISA == target {
		ctx.Report.Notef("cross-isa: image already targets %s, nothing to do", target)
		return nil
	}
	if ctx.Models.IRLocked() {
		return fmt.Errorf("adapter cross-isa: image distributes %s-targeted IR, not source; cannot retarget to %s",
			ctx.Models.BuildISA, target)
	}
	tc, ok := ctx.System.Toolchains.Lookup("gcc")
	if !ok {
		return fmt.Errorf("adapter cross-isa: no system toolchain")
	}

	// Pre-scan sources for ISA-specific code.
	needGuard := map[string]bool{} // source path -> must compile with the portability define
	for _, src := range ctx.Models.SourcePaths {
		data, err := ctx.SrcFS.ReadFile(src)
		if err != nil {
			continue // non-regular or absent; the rebuild will complain if it matters
		}
		marker := toolchain.ForeignISA(data, target)
		if marker == "" {
			continue
		}
		if !strings.Contains(string(data), toolchain.PortabilityDefine) {
			return fmt.Errorf("adapter cross-isa: %s contains unguarded %s-specific code; cannot rebuild for %s",
				src, marker, target)
		}
		needGuard[src] = true
	}

	err := rewriteCommands(ctx, func(n *model.Node, cmd *cclang.Command) (bool, error) {
		changed := false
		// Drop machine flags foreign to the target toolchain.
		var stale []string
		for _, tok := range cmd.Render()[1:] {
			if !strings.HasPrefix(tok, "-m") {
				continue
			}
			val := strings.TrimPrefix(tok, "-m")
			switch {
			case strings.HasPrefix(val, "arch="):
				if _, err := tc.ResolveMarch(strings.TrimPrefix(val, "arch=")); err != nil {
					stale = append(stale, tok)
				}
			case strings.HasPrefix(val, "tune="):
				// Retune is always safe to drop.
			default:
				if !tc.AcceptsMachineFlag(val) {
					stale = append(stale, tok)
				}
			}
		}
		for _, s := range stale {
			cmd.RemoveFlag(s)
			changed = true
		}
		// Route guarded ISA-specific sources onto the portable path.
		for _, dep := range n.Deps {
			depNode, ok := ctx.Models.Graph.Node(dep)
			if !ok || !needGuard[depNode.Path] {
				continue
			}
			if !toolchain.PortabilityGuarded(cmd.Defines()) {
				if err := cmd.AddFlag("-D" + toolchain.PortabilityDefine); err != nil {
					return false, err
				}
				changed = true
			}
		}
		return changed, nil
	})
	if err != nil {
		return err
	}
	ctx.Models.BuildISA = target
	ctx.Report.Notef("cross-isa: retargeted build graph from %s to %s (%d commands changed)",
		"foreign ISA", target, ctx.Report.ChangedCommands)
	return nil
}

// --- march-only (ablation) ---

type marchAdapter struct{ arch string }

// March returns an ablation adapter that only pins -march (without the
// vendor toolchain retune), used by the ablation benchmarks.
func March(arch string) Adapter { return marchAdapter{arch: arch} }

func (m marchAdapter) Name() string { return "march" }

func (m marchAdapter) Apply(ctx *Context) error {
	return rewriteCommands(ctx, func(n *model.Node, cmd *cclang.Command) (bool, error) {
		cmd.SetMarch(m.arch)
		return true, nil
	})
}

// DefaultAdapted returns the adapter chain of the paper's "adapted"
// scheme: library replacement plus toolchain retargeting.
func DefaultAdapted() []Adapter { return []Adapter{Libo(), Toolchain()} }

// DefaultOptimized returns the chain of the "optimized" scheme before the
// PGO feedback loop: adapted plus LTO (PGO's two phases are orchestrated
// by the backend's feedback loop).
func DefaultOptimized() []Adapter { return append(DefaultAdapted(), LTO()) }
