// Package toolchain implements the simulated compiler toolchains coMtainer
// orchestrates: GCC-like drivers, vendor compilers, archivers and a dynamic
// linker model.
//
// Real compilation is replaced by metadata propagation (see DESIGN.md §1):
// a compiled object, archive, shared library or executable is a file whose
// content is an encoded Artifact recording everything performance-relevant
// about how it was built — toolchain, target ISA, -march, -O level, LTO,
// PGO state, and the libraries it links. The performance model derives
// execution time exclusively from this metadata, so an image is only fast
// if the toolchain actually compiled it that way — which is precisely the
// paper's adaptability argument.
package toolchain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// ArtifactKind discriminates compiled outputs.
type ArtifactKind string

// Artifact kinds.
const (
	KindObject       ArtifactKind = "object"
	KindArchive      ArtifactKind = "archive"
	KindSharedObject ArtifactKind = "shared-object"
	KindExecutable   ArtifactKind = "executable"
	// KindBitcode is compiler IR distributed in place of source code (the
	// paper's §4.6 LLVM-IR alternative). It recompiles to any march of
	// the same ISA but is no longer source: foreign-ISA rebuilds and
	// API-incompatible library swaps are off the table.
	KindBitcode ArtifactKind = "bitcode"
)

// artifactMagic prefixes every encoded artifact so they are recognizable
// in an image file system, like an ELF magic number.
const artifactMagic = "#!COMT-ARTIFACT\n"

// Artifact is the metadata of one compiled output.
type Artifact struct {
	Kind      ArtifactKind `json:"kind"`
	Name      string       `json:"name"`
	Toolchain string       `json:"toolchain"` // e.g. "gnu-gcc-13", "ixc-2025"
	Vendor    string       `json:"vendor"`    // e.g. "gnu", "intellic", "phytium"
	TargetISA string       `json:"targetISA"` // "x86-64" or "aarch64"
	March     string       `json:"march"`     // architecture level compiled for
	Mtune     string       `json:"mtune,omitempty"`
	OptLevel  string       `json:"optLevel"`
	Lang      string       `json:"lang,omitempty"`
	OpenMP    bool         `json:"openmp,omitempty"`
	Defines   []string     `json:"defines,omitempty"`

	// LTOObjects marks objects carrying IR for link-time optimization;
	// LTO marks a final link where whole-program optimization ran.
	LTOObjects bool `json:"ltoObjects,omitempty"`
	LTO        bool `json:"lto,omitempty"`

	// PGO state: an instrumented binary emits a profile when run; an
	// optimized binary was compiled against a collected profile.
	PGOInstrumented bool   `json:"pgoInstrumented,omitempty"`
	PGOOptimized    bool   `json:"pgoOptimized,omitempty"`
	ProfileData     string `json:"profileData,omitempty"`

	// Sources lists the source file paths compiled into this artifact
	// (transitively, for links). Objects lists member objects of archives
	// and links. DynamicLibs lists resolved shared-library paths the
	// loader must find at run time.
	Sources     []string `json:"sources,omitempty"`
	Objects     []string `json:"objects,omitempty"`
	DynamicLibs []string `json:"dynamicLibs,omitempty"`

	// Library metadata, set on shared objects shipped by packages:
	// PerfGain is the routine-level speedup of this build relative to the
	// default-stack build of the same library (1.0 = baseline).
	PerfGain  float64 `json:"perfGain,omitempty"`
	Optimized bool    `json:"optimized,omitempty"`

	// MPINetPlugin marks an MPI library build that carries the plugin for
	// the system's high-speed interconnect (the paper's LULESH story).
	MPINetPlugin bool `json:"mpiNetPlugin,omitempty"`

	// SourceLines preserves the original line count on bitcode artifacts
	// so recompilation cost stays faithful after the source is gone.
	SourceLines int `json:"sourceLines,omitempty"`
}

// BitcodeArtifact lowers a source file to distributable compiler IR.
func BitcodeArtifact(srcPath string, src []byte, isa, lang string) *Artifact {
	lines := 1
	for _, c := range src {
		if c == '\n' {
			lines++
		}
	}
	return &Artifact{
		Kind:        KindBitcode,
		Name:        srcPath,
		Toolchain:   "ir-frontend",
		TargetISA:   isa,
		Lang:        lang,
		Sources:     []string{srcPath},
		SourceLines: lines,
	}
}

// Encode serializes the artifact with its magic prefix, suitable for use
// as file content in an image.
func (a *Artifact) Encode() []byte {
	// Keep slices sorted where order is not meaningful so encoding is
	// deterministic regardless of link input discovery order.
	sort.Strings(a.Defines)
	b, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		// Artifact contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("toolchain: encoding artifact: %v", err))
	}
	return append([]byte(artifactMagic), b...)
}

// IsArtifact reports whether data looks like an encoded artifact.
func IsArtifact(data []byte) bool {
	return bytes.HasPrefix(data, []byte(artifactMagic))
}

// Decode parses an encoded artifact.
func Decode(data []byte) (*Artifact, error) {
	if !IsArtifact(data) {
		return nil, fmt.Errorf("toolchain: not an artifact (missing magic)")
	}
	var a Artifact
	if err := json.Unmarshal(bytes.TrimPrefix(data, []byte(artifactMagic)), &a); err != nil {
		return nil, fmt.Errorf("toolchain: decoding artifact: %w", err)
	}
	return &a, nil
}

// LibraryArtifact builds the artifact for a shared library shipped by a
// package — the vehicle for the libo (library replacement) optimization.
func LibraryArtifact(name, vendor, isa string, gain float64, optimized bool) *Artifact {
	return &Artifact{
		Kind:      KindSharedObject,
		Name:      name,
		Toolchain: vendor + "-prebuilt",
		Vendor:    vendor,
		TargetISA: isa,
		March:     "generic",
		OptLevel:  "2",
		PerfGain:  gain,
		Optimized: optimized,
	}
}

// MPILibraryArtifact builds the artifact for an MPI shared library;
// netPlugin marks vendor MPI builds that can drive the high-speed fabric.
func MPILibraryArtifact(name, vendor, isa string, gain float64, netPlugin bool) *Artifact {
	a := LibraryArtifact(name, vendor, isa, gain, netPlugin)
	a.MPINetPlugin = netPlugin
	return a
}
