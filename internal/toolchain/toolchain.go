package toolchain

import (
	"fmt"
	"sort"
	"strings"
)

// ISA identifiers used throughout the repository.
const (
	ISAx86 = "x86-64"
	ISAArm = "aarch64"
)

// Toolchain describes one compiler suite: its identity, target, the
// architecture -march=native resolves to, and which machine options it
// accepts. Quality factors live in the system profiles; the toolchain only
// stamps its name into artifacts.
type Toolchain struct {
	Name        string // stamped into artifacts, e.g. "gnu-gcc-13"
	Vendor      string // "gnu", "llvm", or an HPC vendor
	TargetISA   string
	NativeMarch string // what -march=native means on this toolchain's host
	// DefaultMarch is used when a command names no -march: the baseline
	// the distribution compiles for.
	DefaultMarch string
	// ValidMarch lists the -march= values this toolchain accepts.
	ValidMarch []string
	// ValidMachineFlags lists accepted -m<flag> switches (beyond -march/
	// -mtune), e.g. "avx2" on x86-64. Unknown machine flags are errors,
	// which is how cross-ISA builds fail without script changes.
	ValidMachineFlags []string
	// SupportsLTO / SupportsPGO gate the advanced optimizations.
	SupportsLTO bool
	SupportsPGO bool
}

// AcceptsMarch reports whether the toolchain accepts -march=v.
func (tc *Toolchain) AcceptsMarch(v string) bool {
	if v == "native" {
		return true
	}
	for _, m := range tc.ValidMarch {
		if m == v {
			return true
		}
	}
	return false
}

// AcceptsMachineFlag reports whether the toolchain accepts -m<flag>.
func (tc *Toolchain) AcceptsMachineFlag(flag string) bool {
	if strings.HasPrefix(flag, "arch=") || strings.HasPrefix(flag, "tune=") {
		return true // validated separately
	}
	for _, f := range tc.ValidMachineFlags {
		if f == flag {
			return true
		}
	}
	return false
}

// ResolveMarch maps a requested -march value (possibly empty or "native")
// to the concrete architecture the artifact is built for.
func (tc *Toolchain) ResolveMarch(v string) (string, error) {
	switch v {
	case "":
		return tc.DefaultMarch, nil
	case "native":
		return tc.NativeMarch, nil
	default:
		if !tc.AcceptsMarch(v) {
			return "", fmt.Errorf("toolchain %s: unsupported -march=%s (valid: %s)",
				tc.Name, v, strings.Join(tc.ValidMarch, ", "))
		}
		return v, nil
	}
}

// Registry maps tool names (gcc, g++, cc, ar, ...) to toolchains — the
// contents of a container's $PATH, in effect. The same registry shape
// serves the generic build container and the vendor Sysenv container.
type Registry struct {
	byTool map[string]*Toolchain
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byTool: make(map[string]*Toolchain)}
}

// Register binds the standard driver names (and the given extra aliases)
// to tc. The standard names are cc/gcc/g++/c++/gfortran plus the mpi
// wrappers, mirroring what base images install.
func (r *Registry) Register(tc *Toolchain, aliases ...string) {
	std := []string{"cc", "gcc", "g++", "c++", "gfortran", "mpicc", "mpicxx", "mpifort"}
	for _, n := range append(std, aliases...) {
		r.byTool[n] = tc
	}
}

// Lookup resolves a tool name (basename of argv[0]) to its toolchain.
func (r *Registry) Lookup(tool string) (*Toolchain, bool) {
	if i := strings.LastIndexByte(tool, '/'); i >= 0 {
		tool = tool[i+1:]
	}
	tc, ok := r.byTool[tool]
	return tc, ok
}

// Tools returns the sorted tool names in the registry.
func (r *Registry) Tools() []string {
	out := make([]string, 0, len(r.byTool))
	for n := range r.byTool {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- Stock toolchain definitions ---

// x86MarchLevels are the generic x86-64 micro-architecture levels plus the
// concrete server parts the vendor compiler knows.
var x86MarchLevels = []string{"x86-64", "x86-64-v2", "x86-64-v3", "x86-64-v4", "skylake-avx512", "icelake-server"}

// armMarchLevels are the AArch64 architecture levels.
var armMarchLevels = []string{"armv8-a", "armv8.1-a", "armv8.2-a", "ft2000plus"}

// GNUx86 returns the stock distribution GCC targeting x86-64 — the
// toolchain inside generic base images.
func GNUx86() *Toolchain {
	return &Toolchain{
		Name:              "gnu-gcc-13",
		Vendor:            "gnu",
		TargetISA:         ISAx86,
		NativeMarch:       "x86-64-v3", // a stock build box, not the HPC node
		DefaultMarch:      "x86-64",
		ValidMarch:        x86MarchLevels,
		ValidMachineFlags: []string{"avx2", "avx512f", "sse4.2", "fma", "no-avx256-split-unaligned-load"},
		SupportsLTO:       true,
		SupportsPGO:       true,
	}
}

// GNUArm returns the stock distribution GCC targeting AArch64.
func GNUArm() *Toolchain {
	return &Toolchain{
		Name:              "gnu-gcc-13",
		Vendor:            "gnu",
		TargetISA:         ISAArm,
		NativeMarch:       "armv8.1-a",
		DefaultMarch:      "armv8-a",
		ValidMarch:        armMarchLevels,
		ValidMachineFlags: []string{"outline-atomics", "strict-align", "sve"},
		SupportsLTO:       true,
		SupportsPGO:       true,
	}
}

// VendorX86 returns the x86 HPC system's vendor compiler (the cxxo swap
// target on the Intel-like cluster). Its -march=native resolves to the
// actual node micro-architecture.
func VendorX86() *Toolchain {
	return &Toolchain{
		Name:              "ixc-2025",
		Vendor:            "intellic",
		TargetISA:         ISAx86,
		NativeMarch:       "icelake-server",
		DefaultMarch:      "x86-64-v3",
		ValidMarch:        x86MarchLevels,
		ValidMachineFlags: []string{"avx2", "avx512f", "sse4.2", "fma", "prefer-vector-width=512"},
		SupportsLTO:       true,
		SupportsPGO:       true,
	}
}

// VendorArm returns the AArch64 HPC system's vendor compiler (Phytium-like).
func VendorArm() *Toolchain {
	return &Toolchain{
		Name:              "pcc-11",
		Vendor:            "phytium",
		TargetISA:         ISAArm,
		NativeMarch:       "ft2000plus",
		DefaultMarch:      "armv8-a",
		ValidMarch:        armMarchLevels,
		ValidMachineFlags: []string{"outline-atomics", "strict-align", "sve", "cpu=ft2000plus"},
		SupportsLTO:       true,
		SupportsPGO:       true,
	}
}

// LLVM returns a free LLVM toolchain for the given ISA — the alternative
// the artifact evaluation ships because the proprietary vendor toolchains
// cannot be redistributed.
func LLVM(isa string) *Toolchain {
	tc := &Toolchain{
		Name:        "llvm-clang-18",
		Vendor:      "llvm",
		TargetISA:   isa,
		SupportsLTO: true,
		SupportsPGO: true,
	}
	if isa == ISAArm {
		tc.NativeMarch = "armv8.2-a"
		tc.DefaultMarch = "armv8-a"
		tc.ValidMarch = armMarchLevels
		tc.ValidMachineFlags = []string{"outline-atomics", "sve"}
	} else {
		tc.NativeMarch = "x86-64-v4"
		tc.DefaultMarch = "x86-64"
		tc.ValidMarch = x86MarchLevels
		tc.ValidMachineFlags = []string{"avx2", "avx512f", "sse4.2", "fma"}
	}
	return tc
}

// GenericRegistry returns the registry of a stock base-image build
// environment for the given ISA: distribution GCC plus binutils.
func GenericRegistry(isa string) *Registry {
	r := NewRegistry()
	if isa == ISAArm {
		r.Register(GNUArm())
	} else {
		r.Register(GNUx86())
	}
	return r
}

// VendorRegistry returns the registry of an HPC system's Sysenv container:
// the vendor compiler bound to the standard driver names (so rebuilt
// command lines transparently pick it up) plus its own names.
func VendorRegistry(isa string) *Registry {
	r := NewRegistry()
	if isa == ISAArm {
		tc := VendorArm()
		r.Register(tc, "pcc", "pc++", "pfort")
	} else {
		tc := VendorX86()
		r.Register(tc, "ixc", "ixx", "ifort")
	}
	return r
}
