// Package workloads defines the evaluation applications of the paper's
// Table 2: nine HPC benchmarks (HPL, HPCG, LULESH, CoMD, HPCCG, miniAero,
// miniAMR, miniFE, miniMD) and two large real-world applications (LAMMPS
// with five workloads, OpenMX with four).
//
// Each app carries a synthetic source tree (sized so its cache layer
// reproduces Table 3's proportions), a two-stage Containerfile in the
// conventional and coMtainer variants, its library dependencies, and
// per-workload, per-system performance traits calibrated to the paper's
// reported results (see DESIGN.md §4).
package workloads

import (
	"fmt"
	"strings"

	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// ISAPortability classifies how an app's sources travel across ISAs,
// driving the §5.5 cross-ISA experiment.
type ISAPortability int

const (
	// Portable sources compile on any ISA unchanged.
	Portable ISAPortability = iota
	// Guarded sources contain ISA-specific inline assembly behind the
	// COMT_PORTABLE fallback guard: cross-ISA builds need a -D added.
	Guarded
	// Mandatory sources contain unguarded ISA-specific code; cross-ISA
	// rebuilds fail (these apps are absent from Figure 11).
	Mandatory
)

// App is one evaluation application.
type App struct {
	Name        string
	Language    string // "c" or "c++"
	ReportedLoC int    // Table 2 LoC of the real application
	// SrcMiB is the simulated source-tree size (the dominant part of the
	// cache layer, Table 3).
	SrcMiB      float64
	NumSrcFiles int
	// DataMiB is bundled runtime data copied into the dist image (LAMMPS
	// potentials, OpenMX pseudopotentials).
	DataMiB float64
	// Libs are the -l names the final link uses.
	Libs []string
	// BuildPkgs / RuntimePkgs are apt package names installed in the two
	// stages.
	BuildPkgs   []string
	RuntimePkgs []string
	Portability ISAPortability
	// ExtraCFlags are ISA-specific build flags the app's x86 build script
	// uses (a Figure-11 line-change source); empty for portable scripts.
	ExtraCFlags map[string]string // isa -> flags
	// XBuildLines is the build-script line-change effort of the
	// traditional cross-compilation approach (Figure 11 baseline, taken
	// from the paper since we have no real cross-toolchain scripts).
	XBuildLines int
	// Workloads names the input decks; single-workload apps use their own
	// name.
	Workloads []string
	// UseMake builds through a Makefile (RUN make) instead of explicit
	// compiler lines — how large real applications actually build.
	UseMake bool
}

// BinPath returns where the dist image installs the application binary.
func (a *App) BinPath() string { return "/app/" + a.Name }

// compiler returns the driver the app's build uses.
func (a *App) compiler() string {
	if a.Language == "c++" {
		return "g++"
	}
	return "gcc"
}

// srcExt returns the source file extension for the app's language.
func (a *App) srcExt() string {
	if a.Language == "c++" {
		return ".cc"
	}
	return ".c"
}

// Sources generates the app's synthetic source tree for a build targeting
// isa. File contents are deterministic; the total size tracks SrcMiB.
func (a *App) Sources(isa string) map[string]string {
	files := make(map[string]string, a.NumSrcFiles+1)
	perFile := a.SrcMiB * sysprofile.SizeUnit / float64(a.NumSrcFiles)
	for i := 0; i < a.NumSrcFiles; i++ {
		name := fmt.Sprintf("%s_%02d%s", a.Name, i, a.srcExt())
		var b strings.Builder
		fmt.Fprintf(&b, "/* %s: translation unit %d of %d (synthetic reproduction source) */\n",
			a.Name, i+1, a.NumSrcFiles)
		fmt.Fprintf(&b, "#include \"%s.h\"\n", a.Name)
		if i == 0 {
			switch a.Portability {
			case Guarded:
				b.WriteString("#ifndef COMT_PORTABLE\n")
				fmt.Fprintf(&b, "__asm__(\"vendor-intrinsics\"); /* isa:%s */\n", isa)
				b.WriteString("#else\n/* portable scalar fallback */\n#endif\n")
			case Mandatory:
				fmt.Fprintf(&b, "__asm__(\"hand-tuned kernel\"); /* isa:%s */\n", isa)
			}
			fmt.Fprintf(&b, "int main(int argc, char **argv) { return %s_run(argc, argv); }\n", a.Name)
		}
		line := 0
		for b.Len() < int(perFile) {
			fmt.Fprintf(&b, "static const double %s_c%d_%d = %d.%04d;\n", a.Name, i, line, line, (line*7919)%10000)
			line++
		}
		files[name] = b.String()
	}
	files[a.Name+".h"] = fmt.Sprintf("/* %s public header */\nint %s_run(int, char **);\n", a.Name, a.Name)
	return files
}

// objectNames returns the object files the build produces, in order.
func (a *App) objectNames() []string {
	out := make([]string, a.NumSrcFiles)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%02d.o", a.Name, i)
	}
	return out
}

// Containerfile renders the app's two-stage build script.
//
// comtainer selects the coMtainer variant (Env/Base base images, the
// paper's Figure 6 modification); otherwise the stock ubuntu base is used.
// isa picks the ISA-specific flag set for apps that have one.
func (a *App) Containerfile(isa string, comtainer bool) string {
	buildBase, distBase := sysprofile.TagUbuntu, sysprofile.TagUbuntu
	if comtainer {
		buildBase, distBase = sysprofile.TagEnv, sysprofile.TagBase
	}
	cc := a.compiler()
	flags := a.flagsFor(isa)

	var b strings.Builder
	fmt.Fprintf(&b, "FROM %s AS build\n", buildBase)
	pkgs := append([]string{"build-essential"}, a.BuildPkgs...)
	fmt.Fprintf(&b, "RUN apt-get update && apt-get install -y %s\n", strings.Join(pkgs, " "))
	b.WriteString("COPY src /app/src\n")
	b.WriteString("WORKDIR /app/src\n")
	if a.UseMake {
		b.WriteString("RUN make\n")
	} else {
		for i := 0; i < a.NumSrcFiles; i++ {
			fmt.Fprintf(&b, "RUN %s %s -c %s_%02d%s -o %s_%02d.o\n", cc, flags, a.Name, i, a.srcExt(), a.Name, i)
		}
		link := fmt.Sprintf("RUN %s %s -o %s", cc, strings.Join(a.objectNames(), " "), a.BinPath())
		for _, l := range a.Libs {
			link += " -l" + l
		}
		b.WriteString(link + "\n")
	}
	if a.DataMiB > 0 {
		b.WriteString("COPY data /app/data\n")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "FROM %s AS dist\n", distBase)
	if len(a.RuntimePkgs) > 0 {
		fmt.Fprintf(&b, "RUN apt-get update && apt-get install -y %s\n", strings.Join(a.RuntimePkgs, " "))
	}
	fmt.Fprintf(&b, "COPY --from=build %s %s\n", a.BinPath(), a.BinPath())
	if a.DataMiB > 0 {
		fmt.Fprintf(&b, "COPY --from=build /app/data /app/data\n")
	}
	fmt.Fprintf(&b, "ENTRYPOINT [%q]\n", a.BinPath())
	return b.String()
}

// flagsFor returns the compile flag string for a build targeting isa.
func (a *App) flagsFor(isa string) string {
	flags := "-O2"
	if extra := a.ExtraCFlags[isa]; extra != "" {
		flags += " " + extra
	}
	if a.Portability == Guarded && isa == toolchain.ISAArm {
		flags += " -DCOMT_PORTABLE"
	}
	return flags
}

// Makefile renders the app's build makefile for a target ISA (used when
// UseMake is set; large applications build this way).
func (a *App) Makefile(isa string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CC := %s\n", a.compiler())
	fmt.Fprintf(&b, "CFLAGS := %s\n", a.flagsFor(isa))
	fmt.Fprintf(&b, "OBJS := %s\n", strings.Join(a.objectNames(), " "))
	libs := ""
	for _, l := range a.Libs {
		libs += " -l" + l
	}
	fmt.Fprintf(&b, "\nall: %s\n\n", a.BinPath())
	fmt.Fprintf(&b, "%s: $(OBJS)\n\t$(CC) $^%s -o $@\n\n", a.BinPath(), libs)
	fmt.Fprintf(&b, "%%.o: %%%s\n\t$(CC) $(CFLAGS) -c $< -o $@\n", a.srcExt())
	return b.String()
}

// Data generates the app's bundled data files (empty when DataMiB is 0).
func (a *App) Data() map[string][]byte {
	if a.DataMiB <= 0 {
		return nil
	}
	n := int(a.DataMiB * sysprofile.SizeUnit)
	pattern := []byte(a.Name + " input deck data. ")
	blob := make([]byte, n)
	for i := range blob {
		blob[i] = pattern[i%len(pattern)]
	}
	return map[string][]byte{"potentials.dat": blob}
}

// apps is the Table-2 application set.
var apps = []*App{
	{
		Name: "hpl", Language: "c", ReportedLoC: 37556,
		SrcMiB: 1.20, NumSrcFiles: 6,
		Libs:        []string{"blas", "m", "mpi"},
		BuildPkgs:   []string{"libopenblas0", "libopenmpi3"},
		RuntimePkgs: []string{"libopenblas0", "libopenmpi3"},
		Portability: Mandatory,
		ExtraCFlags: map[string]string{toolchain.ISAx86: "-msse4.2"},
		Workloads:   []string{"hpl"},
	},
	{
		Name: "hpcg", Language: "c++", ReportedLoC: 5529,
		SrcMiB: 0.72, NumSrcFiles: 4,
		Libs:        []string{"m", "mpi"},
		BuildPkgs:   []string{"libopenmpi3"},
		RuntimePkgs: []string{"libopenmpi3"},
		Portability: Portable,
		ExtraCFlags: map[string]string{toolchain.ISAx86: "-march=x86-64-v2"},
		XBuildLines: 41,
		Workloads:   []string{"hpcg"},
	},
	{
		Name: "lulesh", Language: "c++", ReportedLoC: 5546,
		SrcMiB: 0.58, NumSrcFiles: 4,
		Libs:        []string{"m", "mpi", "gomp"},
		BuildPkgs:   []string{"libopenmpi3"},
		RuntimePkgs: []string{"libopenmpi3"},
		Portability: Guarded,
		XBuildLines: 52,
		Workloads:   []string{"lulesh"},
	},
	{
		Name: "comd", Language: "c", ReportedLoC: 4668,
		SrcMiB: 0.66, NumSrcFiles: 4,
		Libs:        []string{"m", "mpi"},
		BuildPkgs:   []string{"libopenmpi3"},
		RuntimePkgs: []string{"libopenmpi3"},
		Portability: Portable,
		XBuildLines: 38,
		Workloads:   []string{"comd"},
	},
	{
		Name: "hpccg", Language: "c++", ReportedLoC: 1563,
		SrcMiB: 0.52, NumSrcFiles: 3,
		Libs:        []string{"m", "mpi"},
		BuildPkgs:   []string{"libopenmpi3"},
		RuntimePkgs: []string{"libopenmpi3"},
		Portability: Portable,
		XBuildLines: 35,
		Workloads:   []string{"hpccg"},
	},
	{
		Name: "miniaero", Language: "c++", ReportedLoC: 42056,
		SrcMiB: 0.55, NumSrcFiles: 5,
		Libs:        []string{"m", "mpi"},
		BuildPkgs:   []string{"libopenmpi3"},
		RuntimePkgs: []string{"libopenmpi3"},
		Portability: Mandatory,
		ExtraCFlags: map[string]string{toolchain.ISAx86: "-mavx2"},
		Workloads:   []string{"miniaero"},
	},
	{
		Name: "miniamr", Language: "c", ReportedLoC: 9957,
		SrcMiB: 0.72, NumSrcFiles: 5,
		Libs:        []string{"m", "mpi"},
		BuildPkgs:   []string{"libopenmpi3"},
		RuntimePkgs: []string{"libopenmpi3"},
		Portability: Portable,
		ExtraCFlags: map[string]string{toolchain.ISAx86: "-march=x86-64-v2"},
		XBuildLines: 44,
		Workloads:   []string{"miniamr"},
	},
	{
		Name: "minife", Language: "c++", ReportedLoC: 28010,
		SrcMiB: 0.60, NumSrcFiles: 4,
		Libs:        []string{"blas", "m", "mpi"},
		BuildPkgs:   []string{"libopenblas0", "libopenmpi3"},
		RuntimePkgs: []string{"libopenblas0", "libopenmpi3"},
		Portability: Portable,
		ExtraCFlags: map[string]string{toolchain.ISAx86: "-msse4.2"},
		XBuildLines: 49,
		Workloads:   []string{"minife"},
	},
	{
		Name: "minimd", Language: "c++", ReportedLoC: 4404,
		SrcMiB: 0.45, NumSrcFiles: 3,
		Libs:        []string{"m", "mpi"},
		BuildPkgs:   []string{"libopenmpi3"},
		RuntimePkgs: []string{"libopenmpi3"},
		Portability: Portable,
		XBuildLines: 37,
		Workloads:   []string{"minimd"},
	},
	{
		Name: "lammps", Language: "c++", ReportedLoC: 2273423,
		SrcMiB: 13.9, NumSrcFiles: 12, DataMiB: 32,
		Libs:        []string{"m", "mpi", "fftw3", "gomp", "z"},
		BuildPkgs:   []string{"libopenmpi3", "libfftw3-double3"},
		RuntimePkgs: []string{"libopenmpi3", "libfftw3-double3"},
		Portability: Mandatory,
		ExtraCFlags: map[string]string{toolchain.ISAx86: "-mavx2 -mfma"},
		Workloads:   []string{"chain", "chute", "eam", "lj", "rhodo"},
		UseMake:     true,
	},
	{
		Name: "openmx", Language: "c", ReportedLoC: 287381,
		SrcMiB: 23.2, NumSrcFiles: 16, DataMiB: 266,
		Libs:        []string{"blas", "lapack", "fftw3", "m", "mpi", "gomp"},
		BuildPkgs:   []string{"libopenblas0", "liblapack3", "libfftw3-double3", "libopenmpi3"},
		RuntimePkgs: []string{"libopenblas0", "liblapack3", "libfftw3-double3", "libopenmpi3"},
		Portability: Mandatory,
		ExtraCFlags: map[string]string{toolchain.ISAx86: "-msse4.2"},
		Workloads:   []string{"awf5e", "awf7e", "nitro", "pt13"},
		UseMake:     true,
	},
}

// Apps returns the Table-2 application set, in paper order.
func Apps() []*App { return apps }

// Find returns the app with the given name.
func Find(name string) (*App, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown app %q", name)
}

// Ref names one (app, workload) pair.
type Ref struct {
	App      *App
	Workload string
}

// ID returns "app" or "app.workload" in the paper's labeling style.
func (r Ref) ID() string {
	if r.Workload == r.App.Name {
		return r.App.Name
	}
	return r.App.Name + "." + r.Workload
}

// AllRefs lists every (app, workload) pair, 18 in total.
func AllRefs() []Ref {
	var out []Ref
	for _, a := range apps {
		for _, w := range a.Workloads {
			out = append(out, Ref{App: a, Workload: w})
		}
	}
	return out
}
