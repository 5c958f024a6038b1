// Package perfmodel estimates workload execution time from binary-artifact
// metadata, the runtime image state, and the target system profile.
//
// The model (DESIGN.md §4) is anchored at each workload's calibrated
// native time: a binary only reaches it if (a) its dynamic libraries
// resolve to vendor-optimized builds in the image it runs from, (b) it was
// compiled by the system's vendor toolchain for the node micro-
// architecture, and (c) its MPI library can drive the high-speed fabric.
// A generic image misses all three, which *is* the adaptability issue.
// LTO and PGO apply multiplicative compute-side factors that may be
// negative, reproducing the paper's per-workload regressions.
package perfmodel

import (
	"fmt"
	"math"
	"strings"

	"comtainer/internal/fsim"
	"comtainer/internal/mpisim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// instrumentationOverhead multiplies run time of PGO-instrumented builds.
const instrumentationOverhead = 1.25

// Result is the outcome of one estimated run.
type Result struct {
	Seconds     float64
	CompSeconds float64
	CommSeconds float64

	// The factors actually applied, for introspection and ablations.
	LibFraction float64 // fraction of key libraries resolved as optimized
	LibFactor   float64
	CCFactor    float64
	LibcFactor  float64
	LTOFactor   float64
	PGOFactor   float64
	NetPath     mpisim.Path
}

// Calibration is the derived per-workload gain decomposition.
type Calibration struct {
	LibGain float64 // full-stack library speedup (all key libs optimized)
	CCGain  float64 // vendor toolchain at native march
	Penalty float64 // fallback-fabric slowdown for this workload's messages
}

// Calibrate derives the library/compiler gain split for a workload on a
// system from its traits (explicit overrides win).
func Calibrate(t workloads.Traits, sys *sysprofile.System) (Calibration, error) {
	p, err := mpisim.Penalty(sys.Fabric, t.AvgMsgKB)
	if err != nil {
		return Calibration{}, err
	}
	if t.ExplicitLibGain > 0 && t.ExplicitCCGain > 0 {
		return Calibration{LibGain: t.ExplicitLibGain, CCGain: t.ExplicitCCGain, Penalty: p}, nil
	}
	lc := (t.OrigOverNative - t.CommFrac*p) / (1 - t.CommFrac)
	// The native build also enjoys the vendor C runtime (~3%) that
	// adaptation deliberately keeps generic; remove it from the derived
	// compute gap so the original/native ratio lands on target.
	lc /= nativeLibcGain
	if lc < 0.5 {
		lc = 0.5
	}
	if lc < 1 {
		// A net regression comes from "over-aggressive optimizations of
		// system-specific compiler toolchains" (paper §5.2 on hpccg) —
		// optimized libraries never slow a workload down.
		return Calibration{LibGain: 1, CCGain: lc, Penalty: p}, nil
	}
	libGain := math.Pow(lc, t.LibShare)
	return Calibration{LibGain: libGain, CCGain: lc / libGain, Penalty: p}, nil
}

// nativeLibcGain is the vendor C-runtime advantage only native builds get
// (adapters do not replace libc for ABI reasons; see sysprofile.NativeStack).
const nativeLibcGain = 1.03

// resolveLib finds and decodes the shared library at path in the runtime
// image, following symlinks.
func resolveLib(runFS *fsim.FS, path string) (*toolchain.Artifact, error) {
	resolved, err := runFS.ResolveSymlink(path)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: error while loading shared libraries: %s: cannot open shared object file", path)
	}
	data, err := runFS.ReadFile(resolved)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: error while loading shared libraries: %s: cannot open shared object file", path)
	}
	art, err := toolchain.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: %s: not a valid shared object", path)
	}
	return art, nil
}

// Estimate computes the execution time of running bin (loaded from runFS)
// for the given workload on sys across nodes.
func Estimate(sys *sysprofile.System, ref workloads.Ref, bin *toolchain.Artifact, runFS *fsim.FS, nodes int) (Result, error) {
	if nodes < 1 {
		return Result{}, fmt.Errorf("perfmodel: node count %d out of range", nodes)
	}
	if bin.Kind != toolchain.KindExecutable {
		return Result{}, fmt.Errorf("perfmodel: %s is a %s, not an executable", bin.Name, bin.Kind)
	}
	// The two classic failure modes of foreign binaries.
	if bin.TargetISA != sys.ISA {
		return Result{}, fmt.Errorf("perfmodel: cannot execute binary file: exec format error (binary is %s, system is %s)",
			bin.TargetISA, sys.ISA)
	}
	if bin.March != "mixed" && !sys.CanRun(bin.March) {
		return Result{}, fmt.Errorf("perfmodel: illegal instruction (binary built for %s, CPUs are %s)",
			bin.March, sys.NativeMarch)
	}

	t, err := workloads.TraitsFor(ref.ID(), sys.Name)
	if err != nil {
		return Result{}, err
	}
	cal, err := Calibrate(t, sys)
	if err != nil {
		return Result{}, err
	}

	// --- Dynamic loading: every recorded library must resolve. ---
	var mpiArt *toolchain.Artifact
	var libcArt *toolchain.Artifact
	keyLibs := ref.App.KeyLibSOs()
	optimizedKey := 0
	seenKey := map[string]bool{}
	for _, libPath := range bin.DynamicLibs {
		art, err := resolveLib(runFS, libPath)
		if err != nil {
			return Result{}, err
		}
		if art.TargetISA != sys.ISA {
			return Result{}, fmt.Errorf("perfmodel: %s: wrong ELF class (built for %s)", libPath, art.TargetISA)
		}
		base := art.Name
		if strings.Contains(libPath, "libmpi") || base == "libmpi" {
			mpiArt = art
		}
		if base == "libc" {
			libcArt = art
		}
		for _, k := range keyLibs {
			if base == k && !seenKey[k] {
				seenKey[k] = true
				if art.Optimized {
					optimizedKey++
				}
			}
		}
	}
	// Key libraries not dynamically linked count as unoptimized: either
	// they were linked statically from the generic archive or the app
	// carries its own fallback implementation.
	libFrac := 0.0
	if len(keyLibs) > 0 {
		libFrac = float64(optimizedKey) / float64(len(keyLibs))
	}

	// --- Factor assembly. ---
	libFactor := 1 + libFrac*(cal.LibGain-1)
	ccFactor := 1.0
	switch {
	case bin.Vendor == sys.Vendor && bin.March == sys.NativeMarch:
		ccFactor = cal.CCGain
	case bin.Vendor == sys.Vendor:
		// Vendor compiler without node-specific tuning: most of the gain.
		ccFactor = 1 + 0.7*(cal.CCGain-1)
	case bin.March == sys.NativeMarch:
		// Stock compiler with -march=native on the node: a sliver.
		ccFactor = 1 + 0.3*(cal.CCGain-1)
	}
	libcFactor := 1.0
	if libcArt != nil && libcArt.Optimized && libcArt.PerfGain > 1 {
		libcFactor = libcArt.PerfGain
	}
	ltoFactor := 1.0
	if bin.LTO {
		ltoFactor = 1 + t.LTOGain
	}
	pgoFactor := 1.0
	if bin.PGOOptimized {
		pgoFactor = 1 + t.PGOGain
	}

	// --- Compute side. ---
	nativeComp16 := t.NativeSec * (1 - t.CommFrac)
	nativeComp := nativeComp16 * 16 / float64(nodes)
	comp := nativeComp * (cal.LibGain * cal.CCGain * nativeLibcGain) /
		(libFactor * ccFactor * libcFactor * ltoFactor * pgoFactor)
	if bin.PGOInstrumented {
		comp *= instrumentationOverhead
	}

	// --- Communication side. ---
	nativeComm16 := t.NativeSec * t.CommFrac
	nativeComm := nativeComm16 * float64(nodes-1) / 15.0
	comm, err := mpisim.CommTime(sys.Fabric, mpiArt, nodes, nativeComm, t.AvgMsgKB)
	if err != nil {
		return Result{}, err
	}

	return Result{
		Seconds:     comp + comm,
		CompSeconds: comp,
		CommSeconds: comm,
		LibFraction: libFrac,
		LibFactor:   libFactor,
		CCFactor:    ccFactor,
		LibcFactor:  libcFactor,
		LTOFactor:   ltoFactor,
		PGOFactor:   pgoFactor,
		NetPath:     mpisim.PathFor(mpiArt, nodes),
	}, nil
}
