// Package mpisim models MPI communication cost over HPC interconnects
// with an alpha-beta (latency-bandwidth) model.
//
// The paper's LULESH story (§5.2) hinges on exactly this effect: "the MPI
// library in original fails to utilize the system's specialized high-speed
// network due to the lack of dedicated plugins, resulting in significantly
// higher communication overhead." An MPI library artifact either carries
// the fabric plugin (vendor builds) or falls back to the TCP path.
package mpisim

import (
	"fmt"

	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// Path identifies which network path an MPI library drives on a fabric.
type Path int

// Network paths.
const (
	// PathNative is the fabric's high-speed path, available only to MPI
	// builds carrying the fabric plugin.
	PathNative Path = iota
	// PathFallback is the TCP emulation path generic MPI builds use.
	PathFallback
	// PathShared is intra-node shared memory (single-node runs).
	PathShared
)

// PathFor determines the network path an MPI library artifact gets on a
// fabric: plugin builds ride the native path, everything else falls back.
func PathFor(mpi *toolchain.Artifact, nodes int) Path {
	if nodes <= 1 {
		return PathShared
	}
	if mpi != nil && mpi.MPINetPlugin {
		return PathNative
	}
	return PathFallback
}

// MessageCostUS returns the alpha-beta cost of one message of msgKB
// kilobytes over the fabric on the given path, in microseconds.
func MessageCostUS(f sysprofile.Fabric, path Path, msgKB float64) (float64, error) {
	if msgKB < 0 {
		return 0, fmt.Errorf("mpisim: negative message size %f", msgKB)
	}
	switch path {
	case PathNative:
		return f.AlphaNativeUS + msgKB/f.BWNativeGBs*1e-3*1024, nil
	case PathFallback:
		return f.AlphaFallbackUS + msgKB/f.BWFallbackGBs*1e-3*1024, nil
	case PathShared:
		// Intra-node: fixed cheap cost; never the bottleneck.
		return 0.2 + msgKB/100*1e-3*1024, nil
	default:
		return 0, fmt.Errorf("mpisim: unknown path %d", path)
	}
}

// Penalty returns the slowdown factor of running a workload's message mix
// over the fallback path instead of the native one: a pure function of the
// fabric and the average message size.
func Penalty(f sysprofile.Fabric, msgKB float64) (float64, error) {
	native, err := MessageCostUS(f, PathNative, msgKB)
	if err != nil {
		return 0, err
	}
	fallback, err := MessageCostUS(f, PathFallback, msgKB)
	if err != nil {
		return 0, err
	}
	if native <= 0 {
		return 0, fmt.Errorf("mpisim: non-positive native message cost")
	}
	return fallback / native, nil
}

// CommTime computes the communication time of a run, given the native-path
// communication time budget (seconds) of the workload at the same scale.
// The budget anchors absolute time; the alpha-beta model supplies the
// relative cost of the path actually taken.
func CommTime(f sysprofile.Fabric, mpi *toolchain.Artifact, nodes int, nativeBudgetSec, msgKB float64) (float64, error) {
	path := PathFor(mpi, nodes)
	switch path {
	case PathShared:
		return 0, nil
	case PathNative:
		return nativeBudgetSec, nil
	default:
		p, err := Penalty(f, msgKB)
		if err != nil {
			return 0, err
		}
		return nativeBudgetSec * p, nil
	}
}
