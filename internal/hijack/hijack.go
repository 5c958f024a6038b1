// Package hijack implements the command-line recorder of coMtainer's Env
// image.
//
// The paper (§4.5): "The recording is performed by a simple command line
// hijacker program that logs the arguments, environment variables, etc.,
// and transparently forwards the execution to the real program via execvp.
// The hijacking is achieved by replacing the default programs in the Env
// image with symbolic links to the hijacker program."
//
// Here the build engine plays the role of execvp: every toolchain command a
// RUN instruction executes passes through a Recorder before being forwarded
// to the simulated toolchain. The accumulated raw build process is written
// into the build container's file system as JSON lines, where the coMtainer
// front-end later parses it into the process models.
package hijack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"comtainer/internal/fsim"
)

// LogPath is where the raw build process log lives inside a build
// container whose base is a coMtainer Env image.
const LogPath = "/.comtainer/rawlog.jsonl"

// Invocation is one recorded command execution.
type Invocation struct {
	Seq  int               `json:"seq"`
	Argv []string          `json:"argv"`
	Cwd  string            `json:"cwd"`
	Env  map[string]string `json:"env,omitempty"`
	// Stage records which build stage ran the command.
	Stage string `json:"stage,omitempty"`
}

// Tool returns the base name of the invoked program.
func (inv Invocation) Tool() string {
	if len(inv.Argv) == 0 {
		return ""
	}
	t := inv.Argv[0]
	if i := strings.LastIndexByte(t, '/'); i >= 0 {
		t = t[i+1:]
	}
	return t
}

// Recorder accumulates invocations during a build.
type Recorder struct {
	invocations []Invocation
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one invocation, assigning its sequence number. Only the
// environment variables relevant to compilation are retained, mirroring
// what the real hijacker logs.
func (r *Recorder) Record(argv []string, cwd, stage string, env map[string]string) {
	kept := map[string]string{}
	for k, v := range env {
		switch {
		case k == "PATH", k == "CC", k == "CXX", k == "FC", k == "LD_LIBRARY_PATH",
			strings.HasPrefix(k, "CFLAGS"), strings.HasPrefix(k, "CXXFLAGS"),
			strings.HasPrefix(k, "LDFLAGS"), strings.HasPrefix(k, "FFLAGS"),
			strings.HasPrefix(k, "COMT_"):
			kept[k] = v
		}
	}
	if len(kept) == 0 {
		kept = nil
	}
	r.invocations = append(r.invocations, Invocation{
		Seq:   len(r.invocations),
		Argv:  append([]string(nil), argv...),
		Cwd:   cwd,
		Env:   kept,
		Stage: stage,
	})
}

// Invocations returns the recorded history in order.
func (r *Recorder) Invocations() []Invocation {
	return append([]Invocation(nil), r.invocations...)
}

// Len returns the number of recorded invocations.
func (r *Recorder) Len() int { return len(r.invocations) }

// Save writes the log as JSON lines to LogPath in fsys.
func (r *Recorder) Save(fsys *fsim.FS) error {
	var b bytes.Buffer
	for _, inv := range r.invocations {
		line, err := json.Marshal(inv)
		if err != nil {
			return fmt.Errorf("hijack: encoding invocation %d: %w", inv.Seq, err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	fsys.WriteFile(LogPath, b.Bytes(), 0o644)
	return nil
}

// Load reads a raw build log from fsys. A missing log yields an empty
// slice, distinguishing "no compilations" from parse errors. Each line is
// decoded where it lies in the log, and a line may be any length: an
// invocation whose response files were expanded can run to megabytes.
func Load(fsys *fsim.FS) ([]Invocation, error) {
	if !fsys.Exists(LogPath) {
		return nil, nil
	}
	data, err := fsys.ReadFile(LogPath)
	if err != nil {
		return nil, err
	}
	var out []Invocation
	for rest := data; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var inv Invocation
		if err := json.Unmarshal(line, &inv); err != nil {
			return nil, fmt.Errorf("hijack: corrupt log line %q: %w", quoted(line), err)
		}
		out = append(out, inv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// quoted is what of a corrupt line its error shows: the first 200 bytes.
func quoted(line []byte) []byte {
	return line[:min(len(line), 200)]
}
