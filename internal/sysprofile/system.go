// Package sysprofile describes the HPC systems of the paper's evaluation
// (Table 1): their hardware, interconnect fabrics, vendor toolchains and
// vendor-optimized software stacks, plus constructors for the container
// base images used on the user and system sides of the coMtainer workflow.
package sysprofile

import (
	"fmt"
	"sync"

	"comtainer/internal/dpkg"
	"comtainer/internal/toolchain"
)

// Fabric models a high-speed interconnect with an alpha-beta cost model.
// An MPI library with the fabric's plugin achieves the Native parameters;
// a generic MPI build falls back to TCP emulation with the Fallback ones —
// the root cause of the paper's LULESH-at-scale story (§5.2).
type Fabric struct {
	Name string
	// Native path (vendor MPI with the fabric plugin).
	AlphaNativeUS float64 // per-message latency, microseconds
	BWNativeGBs   float64 // per-node bandwidth, GB/s
	// Fallback path (generic MPI without the plugin).
	AlphaFallbackUS float64
	BWFallbackGBs   float64
}

// System is one HPC cluster: Table 1 plus everything the system side of
// the coMtainer workflow needs (vendor toolchains and optimized stack).
type System struct {
	Name     string
	ISA      string
	CPUModel string
	Sockets  int
	Cores    int // per node
	ClockGHz float64
	RAMGB    int
	Nodes    int
	OSName   string

	// Vendor identifies the system's compiler/library vendor; artifacts
	// built by a toolchain of this vendor get the full compiler gain.
	Vendor string
	// NativeMarch is the micro-architecture of the nodes; -march=native
	// under the vendor toolchain resolves to it.
	NativeMarch string
	// RunnableMarch lists the march values the node CPUs can execute;
	// running a binary built for anything else dies with SIGILL.
	RunnableMarch []string

	// NodePerf is the abstract per-node throughput (work units/second)
	// used by the performance model.
	NodePerf float64

	Fabric Fabric

	// Toolchains is the Sysenv registry (vendor compiler bound to the
	// standard driver names).
	Toolchains *toolchain.Registry
	// GenericToolchains is what a stock base image sees on this ISA.
	GenericToolchains *toolchain.Registry

	aptOnce  sync.Once
	aptIndex *dpkg.Index
}

// X86Cluster returns the paper's x86-64 testbed: 16 dual-socket Intel Xeon
// Platinum 8358P nodes on Ubuntu 22.04.
func X86Cluster() *System {
	return &System{
		Name:     "x86-64",
		ISA:      toolchain.ISAx86,
		CPUModel: "Intel Xeon Platinum 8358P @ 2.60GHz",
		Sockets:  2,
		Cores:    64,
		ClockGHz: 2.60,
		RAMGB:    512,
		Nodes:    16,
		OSName:   "Ubuntu 22.04",

		Vendor:        "intellic",
		NativeMarch:   "icelake-server",
		RunnableMarch: []string{"generic", "x86-64", "x86-64-v2", "x86-64-v3", "x86-64-v4", "skylake-avx512", "icelake-server"},
		NodePerf:      1000,

		// The x86 fabric degrades gracefully without the plugin: higher
		// latency but most of the bandwidth survives, so the Fig.-9 gap
		// from communication alone stays small on this system.
		Fabric: Fabric{
			Name:            "IB-HDR200",
			AlphaNativeUS:   1.8,
			BWNativeGBs:     25,
			AlphaFallbackUS: 2.5,
			BWFallbackGBs:   24,
		},

		Toolchains:        toolchain.VendorRegistry(toolchain.ISAx86),
		GenericToolchains: toolchain.GenericRegistry(toolchain.ISAx86),
	}
}

// ArmCluster returns the paper's AArch64 testbed: 16 Phytium FT-2000+/64
// nodes on Kylin Linux Advanced Server V10.
func ArmCluster() *System {
	return &System{
		Name:     "aarch64",
		ISA:      toolchain.ISAArm,
		CPUModel: "Phytium FT-2000+/64 @ 2.2GHz",
		Sockets:  1,
		Cores:    64,
		ClockGHz: 2.2,
		RAMGB:    128,
		Nodes:    16,
		OSName:   "Kylin Linux Advanced Server V10",

		Vendor:        "phytium",
		NativeMarch:   "ft2000plus",
		RunnableMarch: []string{"generic", "armv8-a", "armv8.1-a", "ft2000plus"},
		NodePerf:      320,

		// The proprietary fabric collapses to a slow TCP path without the
		// vendor MPI plugin — communication-bound workloads suffer badly.
		Fabric: Fabric{
			Name:            "FT-fabric",
			AlphaNativeUS:   1.5,
			BWNativeGBs:     20,
			AlphaFallbackUS: 20,
			BWFallbackGBs:   10,
		},

		Toolchains:        toolchain.VendorRegistry(toolchain.ISAArm),
		GenericToolchains: toolchain.GenericRegistry(toolchain.ISAArm),
	}
}

// ByName returns the named cluster ("x86-64" or "aarch64").
func ByName(name string) (*System, error) {
	switch name {
	case "x86-64", "x86_64", "x86":
		return X86Cluster(), nil
	case "aarch64", "arm", "arm64":
		return ArmCluster(), nil
	default:
		return nil, fmt.Errorf("sysprofile: unknown system %q", name)
	}
}

// Both returns the two evaluation clusters in paper order.
func Both() []*System {
	return []*System{X86Cluster(), ArmCluster()}
}

// LLVMRegistry returns the free LLVM toolchain as installed on this
// system's nodes: -march=native resolves to the node micro-architecture,
// but the codegen stays the generic LLVM one. This is the toolchain the
// paper's artifact evaluation ships in place of the proprietary vendor
// compilers ("the improvements can be greatly diminished compared to
// vendor-specific toolchain").
func (s *System) LLVMRegistry() *toolchain.Registry {
	tc := toolchain.LLVM(s.ISA)
	tc.NativeMarch = s.NativeMarch
	have := false
	for _, m := range tc.ValidMarch {
		if m == s.NativeMarch {
			have = true
		}
	}
	if !have {
		tc.ValidMarch = append(tc.ValidMarch, s.NativeMarch)
	}
	r := toolchain.NewRegistry()
	r.Register(tc, "clang", "clang++", "flang")
	return r
}

// CanRun reports whether a binary built for march can execute on the
// system's CPUs.
func (s *System) CanRun(march string) bool {
	for _, m := range s.RunnableMarch {
		if m == march {
			return true
		}
	}
	return false
}

// AptIndex returns the package universe visible on the system side: the
// generic distribution packages overlaid with the vendor-optimized builds
// (which carry higher versions, so resolution prefers them). It is built
// once per System and shared by every caller, who only read it and its
// packages: Pinned derives a new index, InstallWithDeps resolves against
// it, and neither writes to a Package.
func (s *System) AptIndex() *dpkg.Index {
	s.aptOnce.Do(func() {
		idx := dpkg.NewIndex()
		for _, p := range GenericPackages(s.ISA) {
			idx.Add(p)
		}
		for _, p := range VendorPackages(s) {
			idx.Add(p)
		}
		s.aptIndex = idx
	})
	return s.aptIndex
}

// Table1Row is one column of the paper's Table 1.
type Table1Row struct {
	System string
	CPU    string
	RAM    string
	OS     string
	Nodes  int
}

// Table1 returns the testbed description the bench harness prints.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, s := range Both() {
		rows = append(rows, Table1Row{
			System: s.Name,
			CPU:    fmt.Sprintf("%d x %s", s.Sockets, s.CPUModel),
			RAM:    fmt.Sprintf("%dGB", s.RAMGB),
			OS:     s.OSName,
			Nodes:  s.Nodes,
		})
	}
	return rows
}
