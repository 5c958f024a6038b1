// Package actioncache is a content-addressed cache for toolchain
// actions: a recorded compile/link/archive command, re-executed during
// a system-side rebuild, is memoized under a key derived from its
// canonical argv, working directory, toolchain identity and resolved
// target profile, plus the digests of every input file it actually
// consulted. A warm rebuild of the same image for the same target then
// replays the recorded outputs instead of re-running the simulated
// toolchain — the same role Bazel's action cache or ccache's direct
// mode plays for real builds.
//
// The cache is two-level, in the style of ccache's direct mode:
//
//   - a manifest entry, keyed by the action ID alone, lists which
//     paths the action read (and how: content read, existence probe,
//     symlink resolution);
//   - a result entry, keyed by the action ID plus the observed state
//     of every manifest input, holds the output files the action
//     produced.
//
// The split is what makes lookup possible before execution: the
// action ID is computable from the command alone, the manifest says
// which files to hash, and the hashed states select the result valid
// for the current file-system contents.
//
// Storage is pluggable via the Cache interface. DiskCache is the one
// tier: an append-only segment log, digest verify-on-read,
// segment-granular LRU eviction under a size cap. Memoizer drives the
// protocol and deduplicates concurrent identical actions with a
// singleflight group; it is the only writer of entries, and a build
// farm's records reach the executor's cache through it.
package actioncache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"

	"comtainer/internal/digest"
)

// Cache is one storage tier: a flat digest-keyed byte store. Values
// are the encoded manifest and result documents; implementations must
// be safe for concurrent use.
type Cache interface {
	// Get returns the value stored under key, or found=false on a
	// miss. An error means the tier failed, not that the key is
	// absent.
	Get(key digest.Digest) (val []byte, found bool, err error)
	// Put stores val under key, replacing any previous value.
	Put(key digest.Digest, val []byte) error
	// Stats returns a snapshot of the tier's cumulative counters.
	Stats() Stats
}

// Stats aggregates counters across the memoizer and its tier. Every
// component fills only the fields it owns; Add merges snapshots.
type Stats struct {
	// Action-level outcomes, counted by the Memoizer.
	Hits    int64 // actions replayed from cache
	Misses  int64 // actions executed and (attempted to be) cached
	Deduped int64 // actions that joined an in-flight identical action

	// Disk-tier outcomes.
	LocalHits   int64
	LocalMisses int64
	Evictions   int64 // entries evicted to honor the size cap
	EvictedByte int64 // bytes reclaimed by eviction

	// Entries dropped or operations failed, memoizer and tier.
	Errors int64
}

// Add returns the field-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Deduped += o.Deduped
	s.LocalHits += o.LocalHits
	s.LocalMisses += o.LocalMisses
	s.Evictions += o.Evictions
	s.EvictedByte += o.EvictedByte
	s.Errors += o.Errors
	return s
}

// String renders the snapshot as the one-line summary the CLI prints.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d deduped (local %d/%d, %d evictions, %d errors)",
		s.Hits, s.Misses, s.Deduped,
		s.LocalHits, s.LocalMisses, s.Evictions, s.Errors)
}

// --- action identity ---

// ActionSpec is the pre-execution identity of a toolchain action: the
// parts of a command that determine its behavior before any file is
// read. Two invocations with equal specs are the same action and may
// share a cache entry (subject to their input states matching).
type ActionSpec struct {
	Argv []string `json:"argv"` // after response-file expansion
	Cwd  string   `json:"cwd"`

	// Toolchain identity and resolved target profile, for tools whose
	// output depends on them. The fingerprint covers vendor, version
	// and capability flags so that e.g. a GCC and an ICC invocation
	// with identical argv never collide.
	Toolchain string `json:"toolchain,omitempty"`
	TargetISA string `json:"targetISA,omitempty"`
	March     string `json:"march,omitempty"`
	Mtune     string `json:"mtune,omitempty"`
	OptLevel  string `json:"optLevel,omitempty"`
}

// ID returns the action's digest: the cache key root for both the
// manifest and result entries.
func (s ActionSpec) ID() digest.Digest {
	b, err := json.Marshal(s)
	if err != nil {
		// ActionSpec contains only strings; Marshal cannot fail.
		panic("actioncache: marshaling ActionSpec: " + err.Error())
	}
	return digest.FromString("comtainer-action/v1\x00" + string(b))
}

// ManifestKey is the digest under which an action's input manifest is
// stored. Domain-separated from result keys so the two namespaces
// cannot collide.
func ManifestKey(actionID digest.Digest) digest.Digest {
	return digest.FromString("comtainer-action-manifest/v1\x00" + string(actionID))
}

// ResultKey is the digest under which an action's outputs are stored
// for one particular observed state of its inputs. Inputs and states
// are paired positionally.
func ResultKey(actionID digest.Digest, inputs []Input, states []string) digest.Digest {
	var b strings.Builder
	b.WriteString("comtainer-action-result/v1\x00")
	b.WriteString(string(actionID))
	for i, in := range inputs {
		b.WriteByte(0)
		b.WriteString(string(in.Op))
		b.WriteByte(0)
		b.WriteString(in.Path)
		b.WriteByte(0)
		b.WriteString(states[i])
	}
	return digest.FromString(b.String())
}

// --- manifest and result documents ---

// InputOp is how an action consulted an input path; the replay check
// must re-observe the path the same way.
type InputOp string

const (
	OpRead    InputOp = "read"    // file content was read
	OpExists  InputOp = "exists"  // only existence was probed
	OpResolve InputOp = "resolve" // a symlink chain was resolved
)

// Input is one dependency edge of an action: a path and the operation
// through which the action observed it.
type Input struct {
	Op   InputOp `json:"op"`
	Path string  `json:"path"`
}

// Output is one file an action produced.
type Output struct {
	Path string `json:"path"`
	Mode uint32 `json:"mode"`
	Data []byte `json:"data"` // base64 in JSON
}

// Manifest is the stored document listing an action's inputs, sorted
// by (path, op).
type Manifest struct {
	Inputs []Input `json:"inputs"`
}

// Result is the record of one action: the input edges it observed,
// sorted by (path, op), and the files it wrote, sorted by path. It is
// what a Recorder produces, what Memoizer.Do returns on every path and
// what a build-farm worker reports. The stored result document is a
// Result with no inputs: those live in the manifest document, under a
// key of their own.
type Result struct {
	Inputs  []Input  `json:"inputs,omitempty"`
	Outputs []Output `json:"outputs"`
}

const (
	manifestMagic = "#!COMT-ACTION-MANIFEST\n"
	resultMagic   = "#!COMT-ACTION-RESULT\n"
)

// EncodeManifest serializes m with a magic prefix.
func EncodeManifest(m Manifest) []byte { return encodeDoc(manifestMagic, m) }

// DecodeManifest parses bytes produced by EncodeManifest.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	err := decodeDoc(manifestMagic, b, &m)
	return m, err
}

// EncodeResult serializes r with a magic prefix.
func EncodeResult(r Result) []byte { return encodeDoc(resultMagic, r) }

// DecodeResult parses bytes produced by EncodeResult.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	err := decodeDoc(resultMagic, b, &r)
	return r, err
}

func encodeDoc(magic string, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("actioncache: marshaling document: " + err.Error())
	}
	return append([]byte(magic), b...)
}

func decodeDoc(magic string, b []byte, v any) error {
	rest, ok := bytes.CutPrefix(b, []byte(magic))
	if !ok {
		return fmt.Errorf("actioncache: missing %q magic", strings.TrimSpace(magic))
	}
	if err := json.Unmarshal(rest, v); err != nil {
		return fmt.Errorf("actioncache: decoding document: %w", err)
	}
	return nil
}

// --- execution recording ---

// Recorder collects the inputs an action observes and the outputs it
// writes while it executes. A nil Recorder is valid and records
// nothing, so instrumented code needs no cache-enabled check at every
// call site. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	inputs  map[Input]string  // observed state per input edge
	outputs map[string]Output // by path; last write wins
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		inputs:  make(map[Input]string),
		outputs: make(map[string]Output),
	}
}

// NoteInput records that the action observed path via op and saw
// state. Reads of a path the action itself already wrote are not
// inputs (the action would see its own output on replay too) and are
// dropped.
func (r *Recorder) NoteInput(op InputOp, path, state string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, self := r.outputs[path]; self {
		return
	}
	r.inputs[Input{Op: op, Path: path}] = state
}

// NoteOutput records that the action wrote data to path with mode.
func (r *Recorder) NoteOutput(path string, data []byte, mode fs.FileMode) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outputs[path] = Output{Path: path, Mode: uint32(mode.Perm()), Data: append([]byte(nil), data...)}
}

// Result returns the record of the action — inputs and outputs,
// canonically ordered — and the state observed for each input,
// paired positionally.
func (r *Recorder) Result() (*Result, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inputs := make([]Input, 0, len(r.inputs))
	for in := range r.inputs {
		inputs = append(inputs, in)
	}
	sort.Slice(inputs, func(i, j int) bool {
		if inputs[i].Path != inputs[j].Path {
			return inputs[i].Path < inputs[j].Path
		}
		return inputs[i].Op < inputs[j].Op
	})
	states := make([]string, len(inputs))
	for i, in := range inputs {
		states[i] = r.inputs[in]
	}
	outputs := make([]Output, 0, len(r.outputs))
	for _, out := range r.outputs {
		outputs = append(outputs, out)
	}
	sort.Slice(outputs, func(i, j int) bool { return outputs[i].Path < outputs[j].Path })
	return &Result{Inputs: inputs, Outputs: outputs}, states
}

// InputState re-observes inputs at lookup time; the Memoizer uses it
// to decide whether a cached result is valid for the current
// file-system contents. Implementations must produce exactly the
// state strings the executing side records, or nothing will ever hit.
type InputState interface {
	StateOf(in Input) string
}

// ReadState is the canonical state string for an OpRead observation:
// the content digest, or AbsentState if the read failed.
func ReadState(data []byte, err error) string {
	if err != nil {
		return AbsentState
	}
	return string(digest.FromBytes(data))
}

// ExistsState is the canonical state string for an OpExists
// observation.
func ExistsState(ok bool) string { return strconv.FormatBool(ok) }

// ResolveState is the canonical state string for an OpResolve
// observation: the resolved path, or AbsentState on failure.
func ResolveState(resolved string, err error) string {
	if err != nil {
		return AbsentState
	}
	return resolved
}

// AbsentState marks an input whose observation failed (missing file,
// dangling symlink). It cannot collide with a digest or a path.
const AbsentState = "!absent"
