package toolchain

import (
	"bytes"
	"fmt"
	"path"
	"sort"
	"strings"
	"unicode"

	"comtainer/internal/actioncache"
	"comtainer/internal/cclang"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
)

// DefaultLibPath is the search path the linker and loader use after any
// explicit -L directories, mirroring a conventional Linux layout.
var DefaultLibPath = []string{"/usr/lib", "/usr/local/lib", "/opt/hpc/lib"}

// PortabilityDefine is the macro workloads use to guard ISA-specific inline
// assembly; defining it selects the portable fallback path. The cross-ISA
// adapter adds -D of this macro — one of the "minor modifications to build
// scripts" Figure 11 counts.
const PortabilityDefine = "COMT_PORTABLE"

// Stats accumulates simulated compilation cost, the quantity the paper
// argues is "intolerable for normal users [but] viable on HPC clusters"
// for LTO (§4.4).
type Stats struct {
	Commands     int
	CompileUnits float64 // abstract compile work (LoC × optimization factor)
	LTOLinks     int
}

// Runner executes toolchain commands against an image file system, the way
// a RUN step in a build container would.
type Runner struct {
	FS       *fsim.FS
	Cwd      string
	Registry *Registry
	Stats    Stats

	// Memo, when set, memoizes each command through the action cache:
	// a previously seen command whose inputs are unchanged replays its
	// recorded outputs instead of executing. Commands are still
	// counted in Stats.Commands, but replayed ones accrue no compile
	// cost — that is the point.
	Memo *actioncache.Memoizer

	// Remote, when set alongside Memo, is offered every cacheable
	// command that missed the cache before it is executed locally.
	// Returning a non-nil record means a farm worker ran the command:
	// its inputs are re-observed against this runner's FS and its
	// outputs written through the recorder, so the local cache entry
	// stays authoritative. Returning (nil, nil) declines and the
	// command dispatches locally as usual.
	Remote RemoteExec

	// LastResult is the record of the most recent Run that went
	// through the action cache (executed, replayed, or remote), nil
	// for uncacheable commands. The rebuild scheduler assembles
	// dependency overlays from it and a farm worker reports it.
	LastResult *actioncache.Result

	// rec is the recorder of the action currently executing, nil when
	// uncached. The FS helper methods report through it.
	rec *actioncache.Recorder
}

// RemoteExec delegates one expanded command (argv, to run in cwd) to
// a remote executor and returns the worker's record of it. See
// Runner.Remote for the contract.
type RemoteExec func(argv []string, cwd string) (*actioncache.Result, error)

// NewRunner returns a Runner rooted at / on fsys.
func NewRunner(fsys *fsim.FS, reg *Registry) *Runner {
	return &Runner{FS: fsys, Cwd: "/", Registry: reg}
}

// abs resolves p against the runner's working directory.
func (r *Runner) abs(p string) string {
	if strings.HasPrefix(p, "/") {
		return fsim.Clean(p)
	}
	return fsim.Clean(path.Join(r.Cwd, p))
}

// CanRun reports whether argv names a tool this runner executes.
func (r *Runner) CanRun(argv []string) bool {
	if len(argv) == 0 {
		return false
	}
	base := path.Base(argv[0])
	return cclang.IsCompilerTool(base) || cclang.IsArchiverTool(base)
}

// ExpandResponseFiles resolves GCC-style @file arguments: each @path is
// replaced by the whitespace-separated tokens of that file (quotes
// honored). Large HPC link lines routinely arrive this way.
func (r *Runner) ExpandResponseFiles(argv []string) ([]string, error) {
	needs := false
	for _, a := range argv {
		if strings.HasPrefix(a, "@") && len(a) > 1 {
			needs = true
		}
	}
	if !needs {
		return argv, nil
	}
	out := make([]string, 0, len(argv))
	for _, a := range argv {
		if !strings.HasPrefix(a, "@") || len(a) == 1 {
			out = append(out, a)
			continue
		}
		data, err := r.FS.ReadFile(r.abs(a[1:]))
		if err != nil {
			return nil, fmt.Errorf("toolchain: %s: cannot open response file", a)
		}
		toks, err := splitResponse(string(data))
		if err != nil {
			return nil, fmt.Errorf("toolchain: %s: %w", a, err)
		}
		out = append(out, toks...)
	}
	return out, nil
}

// splitResponse tokenizes response-file content: whitespace separated,
// single/double quotes group, backslash escapes.
func splitResponse(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inWord := false
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
			i++
		case c == '\'' || c == '"':
			q := c
			i++
			start := i
			for i < len(s) && s[i] != q {
				i++
			}
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated quote")
			}
			cur.WriteString(s[start:i])
			inWord = true
			i++
		case c == '\\' && i+1 < len(s):
			cur.WriteByte(s[i+1])
			inWord = true
			i += 2
		default:
			cur.WriteByte(c)
			inWord = true
			i++
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out, nil
}

// Run executes one command, replaying it from the action cache when a
// Memo is attached and the command's inputs are unchanged.
func (r *Runner) Run(argv []string) error {
	if len(argv) == 0 {
		return fmt.Errorf("toolchain: empty command")
	}
	expanded, err := r.ExpandResponseFiles(argv)
	if err != nil {
		return err
	}
	argv = expanded
	r.Stats.Commands++
	r.LastResult = nil
	base := path.Base(argv[0])
	if r.Memo != nil {
		if id, ok := r.actionKey(argv, base); ok {
			res, replay, err := r.Memo.Do(id, runnerState{r}, func(rec *actioncache.Recorder) error {
				r.rec = rec
				defer func() { r.rec = nil }()
				if r.Remote != nil {
					rr, rerr := r.Remote(argv, r.Cwd)
					if rerr != nil {
						return rerr
					}
					if rr != nil {
						r.applyRemote(rr)
						return nil
					}
				}
				return r.dispatch(argv, base)
			})
			if err != nil {
				return err
			}
			if replay {
				r.applyResult(res)
			}
			r.LastResult = res
			return nil
		}
	}
	return r.dispatch(argv, base)
}

// dispatch routes one expanded command to its tool implementation.
func (r *Runner) dispatch(argv []string, base string) error {
	switch {
	case cclang.IsCompilerTool(base):
		return r.runCompiler(argv)
	case base == "ar", base == "llvm-ar":
		return r.runArchiver(argv)
	case base == "ranlib":
		if len(argv) < 2 {
			return fmt.Errorf("toolchain: ranlib needs an archive argument")
		}
		if !r.exists(argv[1]) {
			return fmt.Errorf("toolchain: ranlib: %s: no such file", argv[1])
		}
		return nil
	default:
		return fmt.Errorf("toolchain: %s: command not found", argv[0])
	}
}

// optCost maps an optimization level to its relative compile cost.
func optCost(level string) float64 {
	switch level {
	case "0":
		return 1.0
	case "1", "g":
		return 1.4
	case "2", "s":
		return 2.0
	default: // 3, fast
		return 3.0
	}
}

// countLines returns the number of lines in source text: its newlines
// plus one, so text without a trailing newline counts its last line and
// text with one an empty line after it.
func countLines(data []byte) int {
	return bytes.Count(data, []byte{'\n'}) + 1
}

// ForeignISA scans source text for "isa:<isa>" markers (the stand-in for
// inline assembly) and returns the first that targets an ISA other than
// targetISA, or "" when none does. A line's first marker is the one that
// counts. src is searched in place.
func ForeignISA(src []byte, targetISA string) string {
	for rest := src; ; {
		i := bytes.Index(rest, []byte("isa:"))
		if i < 0 {
			return ""
		}
		var line []byte
		line, rest, _ = bytes.Cut(rest[i+len("isa:"):], []byte("\n"))
		// The marker is the first word after "isa:", less a comment's end.
		marker := bytes.TrimSpace(line)
		if j := bytes.IndexFunc(marker, unicode.IsSpace); j >= 0 {
			marker = marker[:j]
		}
		marker = bytes.TrimSuffix(marker, []byte("*/"))
		if len(marker) > 0 && string(marker) != targetISA {
			return string(marker)
		}
	}
}

// PortabilityGuarded reports whether a command's -D values select the
// portable path: PortabilityDefine, bare or with any value.
func PortabilityGuarded(defines []string) bool {
	for _, d := range defines {
		if d == PortabilityDefine || strings.HasPrefix(d, PortabilityDefine+"=") {
			return true
		}
	}
	return false
}

// validateMachineFlags rejects -m switches the toolchain does not know —
// the way -mavx2 fails on an AArch64 compiler.
func validateMachineFlags(cmd *cclang.Command, tc *Toolchain) error {
	for _, tok := range cmd.Tokens {
		if tok.Opt != "-m" {
			continue
		}
		if !tc.AcceptsMachineFlag(tok.Value) {
			return fmt.Errorf("toolchain %s: unrecognized command-line option '-m%s'", tc.Name, tok.Value)
		}
	}
	if m, ok := cmd.March(); ok {
		if _, err := tc.ResolveMarch(m); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) runCompiler(argv []string) error {
	cmd, err := cclang.Parse(argv)
	if err != nil {
		return err
	}
	tc, ok := r.Registry.Lookup(cmd.Tool)
	if !ok {
		return fmt.Errorf("toolchain: %s: command not found", cmd.Tool)
	}
	if cmd.Mode() == cclang.ModeInfo {
		return nil
	}
	if err := validateMachineFlags(cmd, tc); err != nil {
		return err
	}
	reqMarch, _ := cmd.March()
	march, err := tc.ResolveMarch(reqMarch)
	if err != nil {
		return err
	}
	mtune, _ := cmd.Mtune()
	if cmd.LTO() && !tc.SupportsLTO {
		return fmt.Errorf("toolchain %s: -flto is not supported", tc.Name)
	}
	if _, gen := cmd.ProfileGenerate(); gen && !tc.SupportsPGO {
		return fmt.Errorf("toolchain %s: -fprofile-generate is not supported", tc.Name)
	}

	switch cmd.Mode() {
	case cclang.ModeCompile, cclang.ModeAssembleSrc:
		return r.compileObjects(cmd, tc, march, mtune)
	case cclang.ModePreprocess:
		// Preprocessing to stdout has no image-visible effect.
		return nil
	default:
		return r.link(cmd, tc, march, mtune)
	}
}

// makeObject compiles one source file (or a distributed bitcode stand-in
// at the source's path) to an object artifact.
func (r *Runner) makeObject(cmd *cclang.Command, tc *Toolchain, march, mtune, src string) (*Artifact, error) {
	srcAbs := r.abs(src)
	data, err := r.readFile(srcAbs)
	if err != nil {
		return nil, fmt.Errorf("toolchain: %s: no such file or directory", src)
	}
	var fromIR *Artifact
	if IsArtifact(data) {
		bc, err := Decode(data)
		if err != nil || bc.Kind != KindBitcode {
			return nil, fmt.Errorf("toolchain: %s: not source code and not bitcode", src)
		}
		// IR is target-specific: recompiling for another ISA is the
		// paper's stated limitation of IR-level distribution.
		if bc.TargetISA != tc.TargetISA {
			return nil, fmt.Errorf("toolchain: %s: bitcode targets %s, cannot lower for %s",
				src, bc.TargetISA, tc.TargetISA)
		}
		fromIR = bc
	}
	if fromIR == nil {
		if marker := ForeignISA(data, tc.TargetISA); marker != "" && !PortabilityGuarded(cmd.Defines()) {
			return nil, fmt.Errorf("toolchain: %s: inline assembly targets %s, cannot compile for %s (define %s for the portable path)",
				src, marker, tc.TargetISA, PortabilityDefine)
		}
	}
	_, pgoGen := cmd.ProfileGenerate()
	profPath, pgoUse := cmd.ProfileUse()
	if pgoUse {
		resolved := r.abs(profPath)
		if profPath == "" {
			resolved = r.abs("default.profdata")
		}
		if !r.exists(resolved) {
			return nil, fmt.Errorf("toolchain: -fprofile-use: %s: cannot open profile data", resolved)
		}
		prof, _ := r.readFile(resolved)
		profPath = string(digest.FromBytes(prof))
	}
	loc := countLines(data)
	lang := cmd.Language()
	if fromIR != nil {
		loc = fromIR.SourceLines
		if fromIR.Lang != "" {
			lang = fromIR.Lang
		}
	}
	cost := float64(loc) * optCost(cmd.OptLevel())
	if cmd.LTO() {
		cost *= 1.3 // emitting IR alongside code
	}
	r.Stats.CompileUnits += cost
	return &Artifact{
		Kind:            KindObject,
		Name:            path.Base(src),
		Toolchain:       tc.Name,
		Vendor:          tc.Vendor,
		TargetISA:       tc.TargetISA,
		March:           march,
		Mtune:           mtune,
		OptLevel:        cmd.OptLevel(),
		Lang:            lang,
		OpenMP:          cmd.OpenMP(),
		Defines:         cmd.Defines(),
		LTOObjects:      cmd.LTO(),
		PGOInstrumented: pgoGen,
		PGOOptimized:    pgoUse,
		ProfileData:     profPath,
		Sources:         []string{srcAbs},
	}, nil
}

func (r *Runner) compileObjects(cmd *cclang.Command, tc *Toolchain, march, mtune string) error {
	inputs := cmd.Inputs()
	if len(inputs) == 0 {
		return fmt.Errorf("toolchain: no input files")
	}
	explicit, hasOut := cmd.Output()
	if hasOut && len(inputs) > 1 {
		return fmt.Errorf("toolchain: cannot specify -o with -c and multiple files")
	}
	for _, src := range inputs {
		if !cclang.IsSourceFile(src) {
			return fmt.Errorf("toolchain: %s: file not recognized as source", src)
		}
		art, err := r.makeObject(cmd, tc, march, mtune, src)
		if err != nil {
			return err
		}
		out := cmd.DefaultOutput(src)
		if hasOut {
			out = explicit
		}
		r.writeFile(out, art.Encode(), 0o644)
	}
	return nil
}

// loadArtifact reads and decodes an artifact file.
func (r *Runner) loadArtifact(p string) (*Artifact, error) {
	data, err := r.readFile(p)
	if err != nil {
		return nil, fmt.Errorf("toolchain: %s: no such file or directory", p)
	}
	a, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("toolchain: %s: file format not recognized", p)
	}
	return a, nil
}

// findLibrary resolves -lname against the -L path and default directories,
// preferring shared over static in each directory like the real linker.
func (r *Runner) findLibrary(name string, libDirs []string) (string, *Artifact, error) {
	dirs := append(append([]string{}, libDirs...), DefaultLibPath...)
	for _, d := range dirs {
		for _, cand := range []string{"lib" + name + ".so", "lib" + name + ".a"} {
			p := fsim.Clean(path.Join(r.abs(d), cand))
			if !r.exists(p) {
				continue
			}
			// Follow symlinked .so names (libm.so -> libm.so.6).
			resolved, err := r.resolveSymlink(p)
			if err != nil {
				return "", nil, err
			}
			a, err := r.loadArtifact(resolved)
			if err != nil {
				return "", nil, err
			}
			return resolved, a, nil
		}
	}
	return "", nil, fmt.Errorf("toolchain: cannot find -l%s", name)
}

// optRank orders optimization levels for merging.
func optRank(level string) int {
	switch level {
	case "0":
		return 0
	case "g":
		return 1
	case "1":
		return 2
	case "s":
		return 3
	case "2":
		return 4
	case "3":
		return 5
	case "fast":
		return 6
	default:
		return 0
	}
}

func (r *Runner) link(cmd *cclang.Command, tc *Toolchain, march, mtune string) error {
	inputs := cmd.Inputs()
	if len(inputs) == 0 {
		return fmt.Errorf("toolchain: no input files")
	}

	var objects []*Artifact
	var objectPaths []string
	for _, in := range inputs {
		switch {
		case cclang.IsSourceFile(in):
			// Compile-and-link in one step.
			art, err := r.makeObject(cmd, tc, march, mtune, in)
			if err != nil {
				return err
			}
			objects = append(objects, art)
			objectPaths = append(objectPaths, r.abs(in))
		case cclang.IsObjectFile(in):
			a, err := r.loadArtifact(in)
			if err != nil {
				return err
			}
			if a.Kind != KindObject {
				return fmt.Errorf("toolchain: %s is a %s, expected object", in, a.Kind)
			}
			objects = append(objects, a)
			objectPaths = append(objectPaths, r.abs(in))
		case cclang.IsArchiveFile(in):
			a, err := r.loadArtifact(in)
			if err != nil {
				return err
			}
			if a.Kind != KindArchive {
				return fmt.Errorf("toolchain: %s is a %s, expected archive", in, a.Kind)
			}
			objects = append(objects, a)
			objectPaths = append(objectPaths, r.abs(in))
		default:
			return fmt.Errorf("toolchain: %s: file not recognized", in)
		}
	}

	// ISA consistency — linking foreign objects is the classic cross-ISA
	// failure ("file in wrong format").
	for i, o := range objects {
		if o.TargetISA != tc.TargetISA {
			return fmt.Errorf("toolchain: %s: file in wrong format (built for %s, linking for %s)",
				objectPaths[i], o.TargetISA, tc.TargetISA)
		}
	}

	// Resolve libraries.
	var dynamicLibs []string
	for _, lib := range cmd.Libs() {
		p, a, err := r.findLibrary(lib, cmd.LibDirs())
		if err != nil {
			return err
		}
		switch a.Kind {
		case KindSharedObject:
			dynamicLibs = append(dynamicLibs, p)
		case KindArchive:
			objects = append(objects, a)
			objectPaths = append(objectPaths, p)
		default:
			return fmt.Errorf("toolchain: %s: unexpected artifact kind %s", p, a.Kind)
		}
	}
	// Implicit runtime libraries, when the image ships them: every driver
	// pulls in libc; g++ adds the C++ runtime, gfortran its own.
	implicit := []string{"/usr/lib/libc.so"}
	switch cmd.Language() {
	case "c++":
		implicit = append(implicit, "/usr/lib/libstdc++.so")
	case "fortran":
		implicit = append(implicit, "/usr/lib/libgfortran.so")
	}
	for _, link := range implicit {
		p, err := r.resolveSymlink(link)
		if err != nil {
			continue
		}
		already := false
		for _, d := range dynamicLibs {
			if d == p {
				already = true
			}
		}
		if !already {
			dynamicLibs = append(dynamicLibs, p)
		}
	}

	// Merge object metadata into the final artifact.
	out := Artifact{
		Kind:      KindExecutable,
		Toolchain: tc.Name,
		Vendor:    tc.Vendor,
		TargetISA: tc.TargetISA,
		Mtune:     mtune,
	}
	if cmd.Shared() {
		out.Kind = KindSharedObject
	}
	seenSrc := map[string]bool{}
	allLTO := true
	allPGOInstr := len(objects) > 0
	allPGOOpt := len(objects) > 0
	marchSet := map[string]bool{}
	for _, o := range objects {
		for _, s := range o.Sources {
			if !seenSrc[s] {
				seenSrc[s] = true
				out.Sources = append(out.Sources, s)
			}
		}
		out.Objects = append(out.Objects, o.Name)
		if !o.LTOObjects {
			allLTO = false
		}
		if !o.PGOInstrumented {
			allPGOInstr = false
		}
		if !o.PGOOptimized {
			allPGOOpt = false
		}
		if optRank(o.OptLevel) > optRank(out.OptLevel) {
			out.OptLevel = o.OptLevel
		}
		marchSet[o.March] = true
		if o.OpenMP {
			out.OpenMP = true
		}
		if o.Lang == "c++" || (out.Lang == "" && o.Lang != "") {
			out.Lang = o.Lang
		}
		if o.ProfileData != "" {
			out.ProfileData = o.ProfileData
		}
	}
	sort.Strings(out.Sources)
	switch len(marchSet) {
	case 0:
		out.March = march
	case 1:
		for m := range marchSet {
			out.March = m
		}
	default:
		out.March = "mixed"
	}
	out.LTO = cmd.LTO() && allLTO
	if cmd.LTO() && !allLTO {
		// Fat-object-less objects silently lose LTO, as GCC warns.
		out.LTO = false
	}
	out.PGOInstrumented = allPGOInstr
	if _, gen := cmd.ProfileGenerate(); gen {
		out.PGOInstrumented = true
	}
	out.PGOOptimized = allPGOOpt
	out.DynamicLibs = dynamicLibs

	if out.LTO {
		// Whole-program optimization re-optimizes everything at link time.
		r.Stats.LTOLinks++
		var loc float64
		for _, s := range out.Sources {
			if data, err := r.readFile(s); err == nil {
				loc += float64(countLines(data))
			}
		}
		r.Stats.CompileUnits += loc * 4.0
	}

	dest := "a.out"
	if o, ok := cmd.Output(); ok {
		dest = o
	}
	out.Name = path.Base(dest)
	r.writeFile(dest, out.Encode(), 0o755)
	return nil
}

func (r *Runner) runArchiver(argv []string) error {
	ac, err := cclang.ParseArchive(argv)
	if err != nil {
		return err
	}
	if !ac.Creates() {
		return nil
	}
	merged := Artifact{Kind: KindArchive, Name: path.Base(ac.Archive)}
	seenSrc := map[string]bool{}
	first := true
	allLTO := true
	for _, m := range ac.Members {
		a, err := r.loadArtifact(m)
		if err != nil {
			return err
		}
		if a.Kind != KindObject {
			return fmt.Errorf("toolchain: ar: %s is a %s, expected object", m, a.Kind)
		}
		if first {
			merged.Toolchain = a.Toolchain
			merged.Vendor = a.Vendor
			merged.TargetISA = a.TargetISA
			merged.March = a.March
			merged.OptLevel = a.OptLevel
			merged.Lang = a.Lang
			first = false
		} else if a.TargetISA != merged.TargetISA {
			return fmt.Errorf("toolchain: ar: %s built for %s, archive is %s", m, a.TargetISA, merged.TargetISA)
		}
		if !a.LTOObjects {
			allLTO = false
		}
		if a.OpenMP {
			merged.OpenMP = true
		}
		if optRank(a.OptLevel) > optRank(merged.OptLevel) {
			merged.OptLevel = a.OptLevel
		}
		for _, s := range a.Sources {
			if !seenSrc[s] {
				seenSrc[s] = true
				merged.Sources = append(merged.Sources, s)
			}
		}
		merged.Objects = append(merged.Objects, a.Name)
	}
	if len(ac.Members) == 0 {
		return fmt.Errorf("toolchain: ar: creating empty archive %s not supported", ac.Archive)
	}
	merged.LTOObjects = allLTO
	sort.Strings(merged.Sources)
	r.writeFile(ac.Archive, merged.Encode(), 0o644)
	return nil
}
