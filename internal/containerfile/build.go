package containerfile

import (
	"errors"
	"strconv"

	"comtainer/internal/digest"
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strings"

	"comtainer/internal/dpkg"
	"comtainer/internal/fsim"
	"comtainer/internal/hijack"
	"comtainer/internal/makesim"
	"comtainer/internal/oci"
	"comtainer/internal/shell"
	"comtainer/internal/toolchain"
)

// Image labels coMtainer base images carry; the builder uses RoleLabel to
// decide where the hijacker's raw build log is persisted.
const (
	RoleLabel   = "io.comtainer.role"
	RoleEnv     = "env"
	RoleBase    = "base"
	RoleSysenv  = "sysenv"
	RoleRebase  = "rebase"
	RoleGeneric = ""
)

// Builder executes multi-stage Containerfile builds. It keeps the
// stages it has run and committed, so building one Containerfile's
// "build" stage and then its "dist" stage runs each stage once.
type Builder struct {
	// Repo resolves FROM references and receives built images.
	Repo *oci.Repository
	// Context is the build context COPY reads from (nil = empty).
	Context *fsim.FS
	// Registry provides the toolchains available inside build containers.
	Registry *toolchain.Registry
	// AptIndex serves `apt-get install` inside RUN instructions.
	AptIndex *dpkg.Index
	// Recorder, when set, captures toolchain invocations (the hijacker).
	Recorder *hijack.Recorder

	// Cache, when set, memoizes instruction layers across builds (and
	// replays their recorded toolchain invocations).
	Cache *BuildCache

	// built holds the stages of cf this builder has run and committed,
	// by name and by ordinal: COPY --from and FROM <stage> read them, and
	// a later Build of cf does not run them again.
	cf    *Containerfile
	built map[string]*stageState
	// contextKey is contextDigest(Context), computed by the first COPY of
	// a Build call and forgotten when the next one starts.
	contextKey digest.Digest
}

// stageState is the mutable state of one executing build container.
type stageState struct {
	name    string
	fs      *fsim.FS
	baseImg *oci.Image
	env     map[string]string
	cwd     string
	config  oci.ExecConfig
	runner  *toolchain.Runner
	isEnv   bool

	// Per-instruction layering (how real builders commit images): each
	// FS-changing instruction cuts one layer, snapshot tracks the state
	// as of the last cut, history mirrors the layers, and chainKey is the
	// build-cache chain position.
	layers   []*fsim.FS
	snapshot *fsim.FS
	history  []oci.HistoryEntry
	chainKey digest.Digest

	// desc is the committed image, set once the stage is done.
	desc oci.Descriptor
}

// Build executes the Containerfile through the target stage (empty target =
// last stage) and returns the target stage's image descriptor. All stages
// built along the way — by this call or an earlier one for the same
// Containerfile — are accessible to COPY --from.
func (b *Builder) Build(cf *Containerfile, target string) (oci.Descriptor, error) {
	if b.Repo == nil {
		return oci.Descriptor{}, fmt.Errorf("containerfile: builder has no repository")
	}
	targetIdx := len(cf.Stages) - 1
	if target != "" {
		st, ok := cf.StageByName(target)
		if !ok {
			return oci.Descriptor{}, fmt.Errorf("containerfile: no stage named %q", target)
		}
		targetIdx = st.Index
	}
	if b.cf != cf {
		b.cf, b.built = cf, make(map[string]*stageState)
	}
	b.contextKey = ""
	for i := 0; i <= targetIdx; i++ {
		st := &cf.Stages[i]
		if b.built[st.Name] != nil {
			continue
		}
		state, err := b.runStage(st)
		if err != nil {
			return oci.Descriptor{}, err
		}
		if state.desc, err = b.commit(state); err != nil {
			return oci.Descriptor{}, err
		}
		b.built[st.Name] = state
		b.built[fmt.Sprint(st.Index)] = state
	}
	return b.built[cf.Stages[targetIdx].Name].desc, nil
}

// resolveBase loads the FROM reference: another stage or a repo tag. The
// returned digest seeds the stage's build-cache chain.
func (b *Builder) resolveBase(ref string) (*oci.Image, *fsim.FS, digest.Digest, error) {
	if prior, ok := b.built[ref]; ok {
		// FROM an earlier stage: snapshot its current state.
		img := prior.baseImg
		return img, prior.fs.Clone(), prior.chainKey, nil
	}
	desc, err := b.Repo.Resolve(ref)
	if err != nil {
		return nil, nil, "", fmt.Errorf("containerfile: resolving FROM %s: %w", ref, err)
	}
	img, err := oci.LoadImage(b.Repo.Store, desc)
	if err != nil {
		return nil, nil, "", fmt.Errorf("containerfile: resolving FROM %s: %w", ref, err)
	}
	flat, err := img.Flatten()
	if err != nil {
		return nil, nil, "", fmt.Errorf("containerfile: flattening %s: %w", ref, err)
	}
	return img, flat, desc.Digest, nil
}

func (b *Builder) runStage(st *Stage) (*stageState, error) {
	img, fs, seed, err := b.resolveBase(st.BaseRef)
	if err != nil {
		return nil, err
	}
	state := &stageState{
		name:    st.Name,
		fs:      fs,
		baseImg: img,
		env:     map[string]string{},
		cwd:     "/",
		config:  img.Config.Config,
		isEnv:   img.Config.Config.Labels[RoleLabel] == RoleEnv,
	}
	for _, kv := range img.Config.Config.Env {
		if k, v, ok := strings.Cut(kv, "="); ok {
			state.env[k] = v
		}
	}
	if wd := img.Config.Config.WorkingDir; wd != "" {
		state.cwd = wd
	}
	state.runner = toolchain.NewRunner(state.fs, b.Registry)
	state.snapshot = fs.Clone()
	state.chainKey = seed

	for _, inst := range st.Instructions {
		if err := b.execInstruction(state, inst); err != nil {
			return nil, fmt.Errorf("containerfile: stage %s line %d (%s): %w",
				st.Name, inst.Line, inst.Cmd, err)
		}
	}
	// Persist the hijacker log inside Env-based containers so the
	// front-end can analyze the build from the image alone; the log gets
	// its own layer.
	if state.isEnv && b.Recorder != nil {
		if err := b.Recorder.Save(state.fs); err != nil {
			return nil, err
		}
		state.cutLayer("coMtainer raw build log")
	}
	return state, nil
}

// cutLayer diffs the state against the last snapshot and, when anything
// changed, appends an instruction layer plus its history entry.
func (s *stageState) cutLayer(createdBy string) *fsim.FS {
	layer := fsim.Diff(s.snapshot, s.fs)
	entry := oci.HistoryEntry{CreatedBy: createdBy}
	if layer.Len() == 0 {
		entry.EmptyLayer = true
		s.history = append(s.history, entry)
		return layer
	}
	s.layers = append(s.layers, layer)
	s.snapshot = s.fs.Clone()
	s.history = append(s.history, entry)
	return layer
}

// copySourceKey identifies the content a COPY instruction reads, for the
// build-cache chain.
func (b *Builder) copySourceKey(state *stageState, inst Instruction) digest.Digest {
	if inst.Cmd != "COPY" && inst.Cmd != "ADD" {
		return ""
	}
	if len(inst.Args) > 0 && strings.HasPrefix(inst.Args[0], "--from=") {
		ref := strings.TrimPrefix(inst.Args[0], "--from=")
		if prior, ok := b.built[ref]; ok {
			return prior.chainKey
		}
		if desc, err := b.Repo.Resolve(ref); err == nil {
			return desc.Digest
		}
		return digest.FromString("unknown-copy-source:" + ref)
	}
	if b.contextKey == "" {
		b.contextKey = contextDigest(b.Context)
	}
	return b.contextKey
}

// execInstruction runs one instruction with per-instruction layering and
// optional build caching.
func (b *Builder) execInstruction(state *stageState, inst Instruction) error {
	cacheable := inst.Cmd == "RUN" || inst.Cmd == "COPY" || inst.Cmd == "ADD"
	describe := inst.Cmd + " " + inst.Raw
	key := instructionKey(state.chainKey, inst, state.env, b.copySourceKey(state, inst))

	if cacheable && b.Cache != nil {
		if e, ok := b.Cache.get(key); ok {
			state.fs = fsim.Apply(state.fs, e.layer)
			state.runner = toolchain.NewRunner(state.fs, b.Registry)
			state.snapshot = state.fs.Clone()
			state.layers = append(state.layers, e.layer.Clone())
			state.history = append(state.history, oci.HistoryEntry{CreatedBy: describe})
			if b.Recorder != nil {
				for _, inv := range e.invocations {
					b.Recorder.Record(inv.Argv, inv.Cwd, state.name, inv.Env)
				}
			}
			state.chainKey = key
			return nil
		}
	}

	recBefore := 0
	if b.Recorder != nil {
		recBefore = b.Recorder.Len()
	}
	if err := b.exec(state, inst); err != nil {
		return err
	}
	if cacheable {
		layer := state.cutLayer(describe)
		if b.Cache != nil {
			var invs []hijack.Invocation
			if b.Recorder != nil {
				invs = b.Recorder.Invocations()[recBefore:]
			}
			b.Cache.put(key, layer, invs)
		}
	} else {
		state.history = append(state.history, oci.HistoryEntry{CreatedBy: describe, EmptyLayer: true})
	}
	state.chainKey = key
	return nil
}

// BaseLayersLabel records how many leading layers of a committed image
// come from its base image — the front-end's provenance boundary.
const BaseLayersLabel = "io.comtainer.base-layers"

// commit turns a stage state into an image: the base image's layers plus
// one layer per FS-changing instruction.
func (b *Builder) commit(state *stageState) (oci.Descriptor, error) {
	// Anything not yet cut (e.g. mutations after the last instruction).
	state.cutLayer("containerfile commit")
	cfg := oci.ImageConfig{
		Architecture: state.baseImg.Config.Architecture,
		OS:           "linux",
		Config:       state.config,
		History:      append([]oci.HistoryEntry(nil), state.baseImg.Config.History...),
	}
	if cfg.Config.Labels == nil {
		cfg.Config.Labels = map[string]string{}
	} else {
		copied := make(map[string]string, len(cfg.Config.Labels))
		for k, v := range cfg.Config.Labels {
			copied[k] = v
		}
		cfg.Config.Labels = copied
	}
	cfg.Config.Labels[BaseLayersLabel] = strconv.Itoa(len(state.baseImg.Manifest.Layers))
	cfg.Config.WorkingDir = state.cwd
	var envList []string
	for k, v := range state.env {
		envList = append(envList, k+"="+v)
	}
	// Deterministic config encoding needs sorted env.
	sort.Strings(envList)
	cfg.Config.Env = envList
	cfg.History = append(cfg.History, state.history...)
	return oci.WriteDerivedImage(b.Repo.Store, cfg, state.baseImg, state.layers)
}

func (b *Builder) exec(state *stageState, inst Instruction) error {
	switch inst.Cmd {
	case "RUN":
		return b.execRun(state, inst.Raw)
	case "COPY", "ADD":
		return b.execCopy(state, inst.Args)
	case "ENV":
		return execEnv(state, inst.Raw)
	case "ARG":
		name, def, _ := strings.Cut(strings.TrimSpace(inst.Raw), "=")
		if _, ok := state.env[name]; !ok && def != "" {
			state.env[name] = def
		}
		return nil
	case "WORKDIR":
		dir := expand(strings.TrimSpace(inst.Raw), state.env)
		if !strings.HasPrefix(dir, "/") {
			dir = path.Join(state.cwd, dir)
		}
		state.cwd = fsim.Clean(dir)
		if err := state.fs.MkdirAll(state.cwd, 0o755); err != nil {
			return fmt.Errorf("WORKDIR %s: %w", dir, err)
		}
		return nil
	case "LABEL":
		if state.config.Labels == nil {
			state.config.Labels = map[string]string{}
		}
		for _, kv := range inst.Args {
			if k, v, ok := strings.Cut(kv, "="); ok {
				state.config.Labels[k] = strings.Trim(v, `"`)
			}
		}
		return nil
	case "ENTRYPOINT":
		argv, err := parseExecForm(inst.Raw)
		if err != nil {
			return err
		}
		state.config.Entrypoint = argv
		return nil
	case "CMD":
		argv, err := parseExecForm(inst.Raw)
		if err != nil {
			return err
		}
		state.config.Cmd = argv
		return nil
	case "USER", "EXPOSE", "VOLUME":
		return nil // accepted, no effect in the simulation
	default:
		return fmt.Errorf("unhandled instruction %s", inst.Cmd)
	}
}

// parseExecForm parses ENTRYPOINT/CMD in JSON-array or shell form.
func parseExecForm(raw string) ([]string, error) {
	raw = strings.TrimSpace(raw)
	if strings.HasPrefix(raw, "[") {
		var argv []string
		if err := json.Unmarshal([]byte(raw), &argv); err != nil {
			return nil, fmt.Errorf("malformed exec form %q: %w", raw, err)
		}
		return argv, nil
	}
	cmds, err := shell.Parse(raw, nil)
	if err != nil {
		return nil, err
	}
	if len(cmds) != 1 {
		return nil, fmt.Errorf("exec form must be a single command, got %q", raw)
	}
	return cmds[0].Argv, nil
}

// execEnv handles both `ENV K=V K2=V2` and legacy `ENV K V`.
func execEnv(state *stageState, raw string) error {
	fields := strings.Fields(raw)
	if len(fields) == 0 {
		return fmt.Errorf("ENV with no arguments")
	}
	if !strings.Contains(fields[0], "=") {
		if len(fields) < 2 {
			return fmt.Errorf("ENV %s missing value", fields[0])
		}
		state.env[fields[0]] = expand(strings.Join(fields[1:], " "), state.env)
		return nil
	}
	for _, kv := range fields {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("malformed ENV assignment %q", kv)
		}
		state.env[k] = expand(strings.Trim(v, `"`), state.env)
	}
	return nil
}

// expand substitutes $VAR and ${VAR} from env.
func expand(s string, env map[string]string) string {
	cmds, err := shell.Parse(s, shell.MapEnv(env))
	if err != nil || len(cmds) != 1 {
		return s
	}
	return strings.Join(cmds[0].Argv, " ")
}

func (b *Builder) execRun(state *stageState, raw string) error {
	cmds, err := shell.Parse(raw, shell.MapEnv(state.env))
	if err != nil {
		return err
	}
	// Each RUN is a fresh shell: cd does not outlive the instruction.
	savedCwd := state.cwd
	defer func() {
		state.cwd = savedCwd
		state.runner.Cwd = savedCwd
	}()
	for _, cmd := range cmds {
		if err := b.execCommand(state, cmd.Argv); err != nil {
			return fmt.Errorf("RUN %s: %w", cmd, err)
		}
	}
	return nil
}

// execCommand dispatches one simple command: shell built-ins, the package
// manager, or the toolchain (recorded through the hijacker).
func (b *Builder) execCommand(state *stageState, argv []string) error {
	if len(argv) == 0 {
		return nil
	}
	abs := func(p string) string {
		if strings.HasPrefix(p, "/") {
			return fsim.Clean(p)
		}
		return fsim.Clean(path.Join(state.cwd, p))
	}
	switch path.Base(argv[0]) {
	case "cd":
		if len(argv) != 2 {
			return fmt.Errorf("cd: want exactly one argument")
		}
		dst := abs(argv[1])
		if st, err := state.fs.Stat(dst); err != nil || st.Type != fsim.TypeDir {
			return fmt.Errorf("cd: %s: no such directory", argv[1])
		}
		state.cwd = dst
		state.runner.Cwd = dst
		return nil
	case "mkdir":
		for _, a := range argv[1:] {
			if a == "-p" {
				continue
			}
			if err := state.fs.MkdirAll(abs(a), 0o755); err != nil {
				return fmt.Errorf("mkdir: %w", err)
			}
		}
		return nil
	case "rm":
		for _, a := range argv[1:] {
			if strings.HasPrefix(a, "-") {
				continue
			}
			// -f semantics: missing targets are fine, anything else is not.
			if err := state.fs.Remove(abs(a)); err != nil && !errors.Is(err, fsim.ErrNotExist) {
				return fmt.Errorf("rm: %w", err)
			}
		}
		return nil
	case "cp":
		_, err := b.cpBuiltin(state, argv[1:])
		return err
	case "mv":
		srcs, err := b.cpBuiltin(state, argv[1:])
		if err != nil {
			return err
		}
		for _, src := range srcs {
			if err := state.fs.Remove(abs(src)); err != nil {
				return err
			}
		}
		return nil
	case "touch":
		for _, a := range argv[1:] {
			if !state.fs.Exists(abs(a)) {
				state.fs.WriteFile(abs(a), nil, 0o644)
			}
		}
		return nil
	case "ln":
		args := argv[1:]
		if len(args) > 0 && args[0] == "-s" {
			args = args[1:]
		}
		if len(args) != 2 {
			return fmt.Errorf("ln: want target and link name")
		}
		state.fs.Symlink(args[0], abs(args[1]))
		return nil
	case "echo", "true", ":":
		return nil
	case "apt-get", "apt":
		return b.aptBuiltin(state, argv[1:])
	case "make":
		return b.makeBuiltin(state, argv[1:])
	case "ldconfig":
		return nil
	default:
		if state.runner.CanRun(argv) {
			state.runner.Cwd = state.cwd
			// The hijacker sees the command after response-file expansion
			// (the real hijacker sits past the shell, where @files are the
			// compiler's to read — expanding first keeps the recorded
			// models self-contained).
			expanded, err := state.runner.ExpandResponseFiles(argv)
			if err != nil {
				return err
			}
			if b.Recorder != nil {
				b.Recorder.Record(expanded, state.cwd, state.name, state.env)
			}
			return state.runner.Run(expanded)
		}
		return fmt.Errorf("%s: command not found", argv[0])
	}
}

// cpBuiltin copies files or directory subtrees and returns the sources
// it was given.
func (b *Builder) cpBuiltin(state *stageState, args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		paths = append(paths, a)
	}
	if len(paths) < 2 {
		return nil, fmt.Errorf("cp: want source(s) and destination")
	}
	srcs, dst := paths[:len(paths)-1], paths[len(paths)-1]
	return srcs, copyInto(state.fs, state.fs, state.cwd, srcs, dst)
}

// makeBuiltin runs `make [targets]` through the makesim interpreter: the
// Makefile in the working directory drives the build, and every recipe
// command flows back through execCommand — so the hijacker records the
// compiler invocations exactly as it would with the real execvp shim.
func (b *Builder) makeBuiltin(state *stageState, args []string) error {
	mkPath := "Makefile"
	var targets []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-f" && i+1 < len(args):
			mkPath = args[i+1]
			i++
		case a == "-j":
			if i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") {
				i++ // parallelism level: accepted, advisory
			}
		case strings.HasPrefix(a, "-j"):
			// -jN: accepted, advisory.
		case strings.HasPrefix(a, "-"):
			return fmt.Errorf("make: unsupported option %s", a)
		case strings.Contains(a, "="):
			// Command-line variable override, highest precedence.
			targets = append(targets, a)
		default:
			targets = append(targets, a)
		}
	}
	abs := mkPath
	if !strings.HasPrefix(abs, "/") {
		abs = fsim.Clean(path.Join(state.cwd, mkPath))
	}
	data, err := state.fs.ReadFile(abs)
	if err != nil {
		if mkPath == "Makefile" {
			alt := fsim.Clean(path.Join(state.cwd, "makefile"))
			if d2, err2 := state.fs.ReadFile(alt); err2 == nil {
				data = d2
				err = nil
			}
		}
		if err != nil {
			return fmt.Errorf("make: %s: no such file or directory", mkPath)
		}
	}
	mf, err := makesim.Parse(string(data))
	if err != nil {
		return err
	}
	// Split overrides out of the target list.
	var pureTargets []string
	for _, t := range targets {
		if k, v, ok := strings.Cut(t, "="); ok && !strings.ContainsAny(k, "/%") {
			mf.Vars[k] = v
			continue
		}
		pureTargets = append(pureTargets, t)
	}
	runner := makesim.NewRunner(mf, state.fs, state.cwd, func(argv []string) error {
		return b.execCommand(state, argv)
	})
	if len(pureTargets) == 0 {
		return runner.Build("")
	}
	for _, t := range pureTargets {
		if err := runner.Build(t); err != nil {
			return err
		}
	}
	return nil
}

// aptBuiltin implements `apt-get update` and `apt-get install -y pkgs...`.
func (b *Builder) aptBuiltin(state *stageState, args []string) error {
	var words []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		words = append(words, a)
	}
	if len(words) == 0 {
		return fmt.Errorf("apt-get: missing subcommand")
	}
	switch words[0] {
	case "update", "clean", "autoremove", "upgrade":
		return nil
	case "install":
		if b.AptIndex == nil {
			return fmt.Errorf("apt-get install: no package repository configured")
		}
		db, err := dpkg.Load(state.fs)
		if err != nil {
			return err
		}
		for _, name := range words[1:] {
			// apt's name=version pinning syntax.
			dep := dpkg.Dependency{Name: name}
			if n, v, ok := strings.Cut(name, "="); ok {
				dep = dpkg.Dependency{Name: n, Op: dpkg.OpEQ, Version: dpkg.Version(v)}
			} else {
				parsed, err := dpkg.ParseDependency(name)
				if err != nil {
					return err
				}
				dep = parsed
			}
			p, ok := b.AptIndex.Find(dep)
			if !ok {
				return fmt.Errorf("apt-get: unable to locate package %s", name)
			}
			if err := db.InstallWithDeps(state.fs, b.AptIndex, p); err != nil {
				return err
			}
		}
		return nil
	case "remove", "purge":
		db, err := dpkg.Load(state.fs)
		if err != nil {
			return err
		}
		for _, name := range words[1:] {
			if err := db.Remove(state.fs, name); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("apt-get: unknown subcommand %q", words[0])
	}
}

// execCopy implements COPY [--from=ref] src... dst.
func (b *Builder) execCopy(state *stageState, args []string) error {
	src := b.Context
	rest := args
	if len(rest) > 0 && strings.HasPrefix(rest[0], "--from=") {
		ref := strings.TrimPrefix(rest[0], "--from=")
		rest = rest[1:]
		// --from names an earlier stage or, failing that, a repo image.
		st, ok := b.built[ref]
		if ok {
			src = st.fs
		} else {
			img, err := b.Repo.LoadByTag(ref)
			if err != nil {
				return fmt.Errorf("COPY --from=%s: %w", ref, err)
			}
			flat, err := img.Flatten()
			if err != nil {
				return err
			}
			src = flat
		}
	}
	if src == nil {
		return fmt.Errorf("COPY: no build context")
	}
	if len(rest) < 2 {
		return fmt.Errorf("COPY: want source(s) and destination")
	}
	expanded := make([]string, len(rest))
	for i, a := range rest {
		expanded[i] = expand(a, state.env)
	}
	dst := expanded[len(expanded)-1]
	return copyInto(src, state.fs, state.cwd, expanded[:len(expanded)-1], dst)
}

// copyInto copies each src (file or directory subtree, relative paths
// resolved against cwd in dstFS, absolute in srcFS) to dst.
func copyInto(srcFS, dstFS *fsim.FS, cwd string, srcs []string, dst string) error {
	absDst := dst
	if !strings.HasPrefix(dst, "/") {
		absDst = path.Join(cwd, dst)
	}
	absDst = fsim.Clean(absDst)
	dstIsDir := strings.HasSuffix(dst, "/") || len(srcs) > 1
	if st, err := dstFS.Stat(absDst); err == nil && st.Type == fsim.TypeDir {
		dstIsDir = true
	}
	for _, src := range srcs {
		absSrc := fsim.Clean(src)
		st, err := srcFS.Stat(absSrc)
		if err != nil {
			// Try a glob.
			matches := srcFS.Glob(absSrc)
			if len(matches) == 0 {
				return fmt.Errorf("copy: %s: no such file or directory", src)
			}
			if err := copyInto(srcFS, dstFS, cwd, matches, dst); err != nil {
				return err
			}
			continue
		}
		switch st.Type {
		case fsim.TypeDir:
			// Copy the subtree under dst.
			prefix := absSrc
			err := srcFS.Walk(func(f *fsim.File) error {
				if f.Path != prefix && !strings.HasPrefix(f.Path, prefix+"/") {
					return nil
				}
				rel := strings.TrimPrefix(f.Path, prefix)
				target := fsim.Clean(absDst + rel)
				c := f.Clone()
				c.Path = target
				dstFS.Add(c)
				return nil
			})
			if err != nil {
				return err
			}
		default:
			target := absDst
			if dstIsDir {
				target = fsim.Clean(path.Join(absDst, path.Base(absSrc)))
			}
			c := st.Clone()
			c.Path = target
			dstFS.Add(c)
		}
	}
	return nil
}
