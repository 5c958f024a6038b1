package toolchain

import (
	"encoding/json"
	"io/fs"
	"strings"

	"comtainer/internal/actioncache"
	"comtainer/internal/cclang"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
)

// This file connects the Runner to the action cache. Every file-system
// access the simulated tools make goes through the read/write helpers
// below, which double as the recording taps: on a cache miss the
// helpers report each observed input and produced output to the
// Recorder of the in-flight action, and on a hit the recorded outputs
// are written back without running the tool at all.

// readFile reads p (resolved against Cwd) and records the observation,
// a digest taken only when the recorder keeps states.
func (r *Runner) readFile(p string) ([]byte, error) {
	ap := r.abs(p)
	data, err := r.FS.ReadFile(ap)
	state := ""
	if r.rec.WantsStates() {
		state = actioncache.ReadState(data, err)
	}
	r.rec.NoteInput(actioncache.OpRead, ap, state)
	return data, err
}

// exists probes p and records the observation — negative probes too,
// so a library appearing earlier in the search path invalidates
// results that skipped over its absence.
func (r *Runner) exists(p string) bool {
	ap := r.abs(p)
	ok := r.FS.Exists(ap)
	r.rec.NoteInput(actioncache.OpExists, ap, actioncache.ExistsState(ok))
	return ok
}

// resolveSymlink follows the symlink chain at p and records it.
func (r *Runner) resolveSymlink(p string) (string, error) {
	ap := r.abs(p)
	resolved, err := r.FS.ResolveSymlink(ap)
	r.rec.NoteInput(actioncache.OpResolve, ap, actioncache.ResolveState(resolved, err))
	return resolved, err
}

// writeFile writes p (resolved against Cwd) and records the output.
func (r *Runner) writeFile(p string, data []byte, mode fs.FileMode) {
	ap := r.abs(p)
	r.FS.WriteFile(ap, data, mode)
	r.rec.NoteOutput(ap, data, mode)
}

// applyResult replays a cached action's outputs onto the file system.
func (r *Runner) applyResult(res *actioncache.Result) {
	if res == nil {
		return
	}
	for _, out := range res.Outputs {
		r.FS.WriteFile(out.Path, out.Data, fs.FileMode(out.Mode))
	}
}

// applyRemote adopts a farm execution: every input edge the worker
// observed is re-observed here through the recording helpers, and the
// outputs are then written through the recorder. The entry is keyed by
// this file system's states, but a Result carries no states of the
// worker's, so the worker's outputs are stored under these states
// whatever the worker saw. What keeps the entry sound is that the
// worker's tree is this file system's snapshot plus the outputs of the
// task's transitive dependencies; nothing here checks it. Inputs go
// first: NoteInput drops self-reads of paths already recorded as
// outputs, and that filter must see the inputs before the outputs
// land.
func (r *Runner) applyRemote(rr *actioncache.Result) {
	for _, in := range rr.Inputs {
		switch in.Op {
		case actioncache.OpRead:
			r.readFile(in.Path)
		case actioncache.OpExists:
			r.exists(in.Path)
		case actioncache.OpResolve:
			r.resolveSymlink(in.Path)
		}
	}
	for _, out := range rr.Outputs {
		r.writeFile(out.Path, out.Data, fs.FileMode(out.Mode))
	}
}

// runnerState re-observes recorded inputs against the runner's FS at
// lookup time. It must mirror the helpers above exactly — same path
// normalization, same state encoding — or nothing ever hits.
type runnerState struct{ r *Runner }

func (s runnerState) StateOf(in actioncache.Input) string {
	switch in.Op {
	case actioncache.OpRead:
		data, err := s.r.FS.ReadFile(in.Path)
		return actioncache.ReadState(data, err)
	case actioncache.OpExists:
		return actioncache.ExistsState(s.r.FS.Exists(in.Path))
	case actioncache.OpResolve:
		resolved, err := s.r.FS.ResolveSymlink(in.Path)
		return actioncache.ResolveState(resolved, err)
	default:
		return actioncache.AbsentState
	}
}

// actionKey derives the pre-execution cache identity of argv, or
// ok=false when the command is not safely cacheable (unparseable,
// unknown tool/toolchain — those run uncached and fail normally).
func (r *Runner) actionKey(argv []string, base string) (digest.Digest, bool) {
	spec := actioncache.ActionSpec{Argv: argv, Cwd: fsim.Clean(r.Cwd)}
	switch {
	case cclang.IsCompilerTool(base):
		cmd, err := cclang.Parse(argv)
		if err != nil {
			return "", false
		}
		tc, ok := r.Registry.Lookup(cmd.Tool)
		if !ok {
			return "", false
		}
		// The resolved target profile, not the raw flags: -march=native
		// means different code on different toolchains, and two argv
		// spellings of the same profile may share an entry.
		march, err := tc.ResolveMarch(firstMarch(cmd))
		if err != nil {
			return "", false
		}
		spec.Toolchain = toolchainFingerprint(tc)
		spec.TargetISA = tc.TargetISA
		spec.March = march
		spec.Mtune, _ = cmd.Mtune()
		spec.OptLevel = cmd.OptLevel()
	case cclang.IsArchiverTool(base):
		// Pure functions of argv and file content.
	default:
		return "", false
	}
	return spec.ID(), true
}

func firstMarch(cmd *cclang.Command) string {
	m, _ := cmd.March()
	return m
}

// toolchainFingerprint digests every identity and capability field of
// tc, so e.g. a vendor compiler and GCC with identical argv never
// share cache entries.
func toolchainFingerprint(tc *Toolchain) string {
	b, err := json.Marshal(tc)
	if err != nil {
		panic("toolchain: marshaling toolchain fingerprint: " + err.Error())
	}
	return string(digest.FromBytes(b))
}

// Fingerprint digests the registry's complete tool-name→toolchain
// binding. Two registries with equal fingerprints dispatch every tool
// to behaviorally identical toolchains, which is the compatibility
// contract remote execution schedules on: a farm worker whose
// registry fingerprint matches the executor's produces bit-identical
// action results.
func (r *Registry) Fingerprint() string {
	var b strings.Builder
	b.WriteString("comtainer-registry-fp/v1")
	for _, name := range r.Tools() {
		b.WriteByte(0)
		b.WriteString(name)
		b.WriteByte(0)
		b.WriteString(toolchainFingerprint(r.byTool[name]))
	}
	return string(digest.FromString(b.String()))
}
