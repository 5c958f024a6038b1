package cclang

import (
	"fmt"
	"path"
	"strings"
)

// Mode is the driver pipeline mode selected by a command line.
type Mode uint8

// Driver modes.
const (
	ModeLink        Mode = iota // default: compile inputs as needed, then link
	ModeCompile                 // -c: stop after producing object files
	ModeAssembleSrc             // -S: stop after producing assembly
	ModePreprocess              // -E: stop after preprocessing
	ModeInfo                    // --version and friends: no inputs processed
)

func (m Mode) String() string {
	switch m {
	case ModeLink:
		return "link"
	case ModeCompile:
		return "compile"
	case ModeAssembleSrc:
		return "assemble"
	case ModePreprocess:
		return "preprocess"
	case ModeInfo:
		return "info"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Token is one parsed element of a command line, preserving enough shape
// to render the original argv back.
type Token struct {
	// Input is set (and Opt empty) for non-option arguments.
	Input string
	// Opt holds the option name for option tokens; Value its value.
	Opt      string
	Value    string
	Style    Style
	Category Category
	// SepValue records that a JoinedOrSeparate value arrived as a separate
	// argv element, so rendering reproduces the original spelling.
	SepValue bool
}

// Command is a parsed compiler-driver invocation.
type Command struct {
	// Tool is argv[0] as written (gcc, g++, cc, gfortran, mpicc, ...).
	Tool   string
	Tokens []Token
}

// Parse converts argv (including argv[0]) into a Command.
func Parse(argv []string) (*Command, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("cclang: empty argv")
	}
	cmd := &Command{Tool: argv[0]}
	i := 1
	for i < len(argv) {
		arg := argv[i]
		if arg == "-" || !strings.HasPrefix(arg, "-") {
			cmd.Tokens = append(cmd.Tokens, Token{Input: arg})
			i++
			continue
		}
		spec, joined, ok := lookup(arg)
		if !ok {
			return nil, fmt.Errorf("cclang: unknown option %q", arg)
		}
		tok := Token{Opt: spec.Name, Style: spec.Style, Category: spec.Category}
		switch spec.Style {
		case StyleFlag:
			i++
		case StyleJoined:
			tok.Value = joined
			i++
		case StyleSeparate:
			if i+1 >= len(argv) {
				return nil, fmt.Errorf("cclang: option %q requires an argument", arg)
			}
			tok.Value = argv[i+1]
			tok.SepValue = true
			i += 2
		case StyleJoinedOrSeparate:
			if joined != "" {
				tok.Value = joined
				i++
			} else {
				if i+1 >= len(argv) {
					return nil, fmt.Errorf("cclang: option %q requires an argument", arg)
				}
				tok.Value = argv[i+1]
				tok.SepValue = true
				i += 2
			}
		}
		cmd.Tokens = append(cmd.Tokens, tok)
	}
	return cmd, nil
}

// Render reproduces the argv (including argv[0]) of the command.
func (c *Command) Render() []string {
	out := []string{c.Tool}
	for _, t := range c.Tokens {
		if t.Opt == "" {
			out = append(out, t.Input)
			continue
		}
		switch t.Style {
		case StyleFlag:
			out = append(out, t.Opt)
		case StyleJoined:
			out = append(out, t.Opt+t.Value)
		case StyleSeparate:
			out = append(out, t.Opt, t.Value)
		case StyleJoinedOrSeparate:
			if t.SepValue {
				out = append(out, t.Opt, t.Value)
			} else {
				out = append(out, t.Opt+t.Value)
			}
		}
	}
	return out
}

// Mode determines the pipeline mode. Later mode flags win, matching the
// driver; any info flag short-circuits.
func (c *Command) Mode() Mode {
	mode := ModeLink
	for _, t := range c.Tokens {
		switch t.Opt {
		case "-c":
			mode = ModeCompile
		case "-S":
			mode = ModeAssembleSrc
		case "-E":
			mode = ModePreprocess
		case "--version", "--help", "-dumpversion", "-dumpmachine", "-print-search-dirs":
			return ModeInfo
		}
	}
	return mode
}

// Inputs returns the non-option arguments (source files, objects, archives).
func (c *Command) Inputs() []string {
	var out []string
	for _, t := range c.Tokens {
		if t.Opt == "" {
			out = append(out, t.Input)
		}
	}
	return out
}

// value returns the last value of option name, and whether it appeared.
func (c *Command) value(name string) (string, bool) {
	v, ok := "", false
	for _, t := range c.Tokens {
		if t.Opt == name {
			v, ok = t.Value, true
		}
	}
	return v, ok
}

// Output returns the explicit -o value, if any.
func (c *Command) Output() (string, bool) { return c.value("-o") }

// DefaultOutput computes the output path the driver would choose for input
// under the command's mode when no -o is given.
func (c *Command) DefaultOutput(input string) string {
	stem := strings.TrimSuffix(path.Base(input), path.Ext(input))
	switch c.Mode() {
	case ModeCompile:
		return stem + ".o"
	case ModeAssembleSrc:
		return stem + ".s"
	case ModePreprocess:
		return "" // stdout
	default:
		return "a.out"
	}
}

// OptLevel returns the effective optimization level ("0" when none given;
// later -O flags win). Bare -O means -O1.
func (c *Command) OptLevel() string {
	level := "0"
	for _, t := range c.Tokens {
		if t.Opt == "-O" {
			if t.Value == "" {
				level = "1"
			} else {
				level = t.Value
			}
		}
	}
	return level
}

// March returns the -march= value, if any.
func (c *Command) March() (string, bool) {
	for i := len(c.Tokens) - 1; i >= 0; i-- {
		t := c.Tokens[i]
		if t.Opt == "-m" && strings.HasPrefix(t.Value, "arch=") {
			return strings.TrimPrefix(t.Value, "arch="), true
		}
	}
	return "", false
}

// Mtune returns the -mtune= value, if any.
func (c *Command) Mtune() (string, bool) {
	for i := len(c.Tokens) - 1; i >= 0; i-- {
		t := c.Tokens[i]
		if t.Opt == "-m" && strings.HasPrefix(t.Value, "tune=") {
			return strings.TrimPrefix(t.Value, "tune="), true
		}
	}
	return "", false
}

// HasFlag reports whether the exact option spelling (e.g. "-flto",
// "-fprofile-generate", "-shared") appears.
func (c *Command) HasFlag(spelling string) bool {
	for _, t := range c.Tokens {
		if t.Opt == spelling && t.Value == "" {
			return true
		}
		if t.Style == StyleJoined && t.Opt+t.Value == spelling {
			return true
		}
	}
	return false
}

// LTO reports whether link-time optimization is enabled (-flto or
// -flto=...), honouring a later -fno-lto.
func (c *Command) LTO() bool {
	on := false
	for _, t := range c.Tokens {
		full := t.Opt + t.Value
		if full == "-flto" || strings.HasPrefix(full, "-flto=") {
			on = true
		}
		if full == "-fno-lto" {
			on = false
		}
	}
	return on
}

// ProfileGenerate reports whether -fprofile-generate is active, returning
// the profile directory if one was given.
func (c *Command) ProfileGenerate() (dir string, on bool) {
	for _, t := range c.Tokens {
		full := t.Opt + t.Value
		if full == "-fprofile-generate" {
			on, dir = true, ""
		}
		if strings.HasPrefix(full, "-fprofile-generate=") {
			on, dir = true, strings.TrimPrefix(full, "-fprofile-generate=")
		}
	}
	return dir, on
}

// ProfileUse reports whether -fprofile-use is active, returning the profile
// path if one was given.
func (c *Command) ProfileUse() (p string, on bool) {
	for _, t := range c.Tokens {
		full := t.Opt + t.Value
		if full == "-fprofile-use" {
			on, p = true, ""
		}
		if strings.HasPrefix(full, "-fprofile-use=") {
			on, p = true, strings.TrimPrefix(full, "-fprofile-use=")
		}
	}
	return p, on
}

// Shared reports whether -shared was given.
func (c *Command) Shared() bool { return c.HasFlag("-shared") }

// OpenMP reports whether -fopenmp was given.
func (c *Command) OpenMP() bool { return c.HasFlag("-fopenmp") }

// LibDirs returns -L directories in order.
func (c *Command) LibDirs() []string {
	var out []string
	for _, t := range c.Tokens {
		if t.Opt == "-L" {
			out = append(out, t.Value)
		}
	}
	return out
}

// Libs returns -l library names in order.
func (c *Command) Libs() []string {
	var out []string
	for _, t := range c.Tokens {
		if t.Opt == "-l" {
			out = append(out, t.Value)
		}
	}
	return out
}

// Defines returns -D macro definitions in order.
func (c *Command) Defines() []string {
	var out []string
	for _, t := range c.Tokens {
		if t.Opt == "-D" {
			out = append(out, t.Value)
		}
	}
	return out
}

// Language guesses the source language from the tool name.
func (c *Command) Language() string {
	base := path.Base(c.Tool)
	switch {
	case strings.Contains(base, "g++"), strings.Contains(base, "c++"), base == "mpicxx", base == "mpic++":
		return "c++"
	case strings.Contains(base, "fortran"), base == "mpifort", base == "mpif90", base == "flang":
		return "fortran"
	default:
		return "c"
	}
}

// --- Rewriting API (used by system adapters) ---

// SetMarch removes existing -march= options and appends -march=<arch>.
func (c *Command) SetMarch(arch string) {
	c.removeMachineValue("arch=")
	c.Tokens = append(c.Tokens, Token{Opt: "-m", Value: "arch=" + arch, Style: StyleJoined, Category: CatMachine})
}

// SetMtune removes existing -mtune= options and appends -mtune=<cpu>.
func (c *Command) SetMtune(cpu string) {
	c.removeMachineValue("tune=")
	c.Tokens = append(c.Tokens, Token{Opt: "-m", Value: "tune=" + cpu, Style: StyleJoined, Category: CatMachine})
}

func (c *Command) removeMachineValue(prefix string) {
	kept := c.Tokens[:0]
	for _, t := range c.Tokens {
		if t.Opt == "-m" && strings.HasPrefix(t.Value, prefix) {
			continue
		}
		kept = append(kept, t)
	}
	c.Tokens = kept
}

// AddFlag appends a flag-or-joined option given its full spelling,
// e.g. "-flto", "-fprofile-use=/p/app.profdata".
func (c *Command) AddFlag(spelling string) error {
	spec, joined, ok := lookup(spelling)
	if !ok {
		return fmt.Errorf("cclang: cannot add unknown option %q", spelling)
	}
	c.Tokens = append(c.Tokens, Token{Opt: spec.Name, Value: joined, Style: spec.Style, Category: spec.Category})
	return nil
}

// RemoveFlag deletes every token whose full spelling (Opt+Value) is s.
func (c *Command) RemoveFlag(s string) {
	kept := c.Tokens[:0]
	for _, t := range c.Tokens {
		if t.Opt+t.Value == s {
			continue
		}
		kept = append(kept, t)
	}
	c.Tokens = kept
}

// IsSourceFile reports whether p looks like a compilable source file.
func IsSourceFile(p string) bool {
	switch path.Ext(p) {
	case ".c", ".cc", ".cpp", ".cxx", ".C", ".f", ".f90", ".f95", ".F", ".F90", ".s", ".S", ".i", ".ii":
		return true
	default:
		return false
	}
}

// IsObjectFile reports whether p looks like a relocatable object.
func IsObjectFile(p string) bool { return path.Ext(p) == ".o" }

// IsArchiveFile reports whether p looks like a static archive.
func IsArchiveFile(p string) bool { return path.Ext(p) == ".a" }

// IsCompilerTool reports whether the command name is a compiler driver this
// package models (used by the hijacker to decide what to record).
func IsCompilerTool(name string) bool {
	switch path.Base(name) {
	case "gcc", "g++", "cc", "c++", "gfortran", "clang", "clang++",
		"mpicc", "mpicxx", "mpic++", "mpifort", "mpif90":
		return true
	default:
		return false
	}
}
