// Package makesim implements the subset of GNU make that HPC application
// builds lean on: explicit rules, prerequisites, recipe lines, `=`/`:=`
// variable assignment, `$(VAR)` references, the automatic variables `$@`,
// `$<` and `$^`, pattern rules (`%.o: %.c`), and `.PHONY`.
//
// Real HPC images run `make` in their build stage; the compiler commands
// make spawns are what coMtainer's hijacker records. The build engine
// wires this interpreter in so a `RUN make` behaves exactly like that:
// recipes are expanded and handed, command by command, to the container's
// command executor.
package makesim

import (
	"fmt"
	"slices"
	"strings"

	"comtainer/internal/fsim"
	"comtainer/internal/shell"
)

// Rule is one makefile rule.
type Rule struct {
	Target  string
	Prereqs []string
	Recipe  []string // unexpanded recipe lines
	Pattern bool     // target contains %
}

// Makefile is a parsed makefile.
type Makefile struct {
	Vars  map[string]string
	Rules []*Rule
	Phony map[string]bool
	// DefaultTarget is the first non-pattern, non-special target.
	DefaultTarget string
}

// Parse parses makefile text. Variable values are expanded at parse time
// for `:=` and lazily (at use) for `=`; since our builds assign before
// use, both expand eagerly here, which matches observed behavior for the
// supported subset.
func Parse(text string) (*Makefile, error) {
	mf := &Makefile{Vars: map[string]string{}, Phony: map[string]bool{}}
	var current *Rule
	lineNo := 0
	for _, raw := range strings.Split(text, "\n") {
		lineNo++
		// Recipe lines are tab-prefixed and belong to the current rule.
		if strings.HasPrefix(raw, "\t") {
			if current == nil {
				return nil, fmt.Errorf("makesim: line %d: recipe with no target", lineNo)
			}
			line := strings.TrimSpace(raw)
			if line != "" {
				current.Recipe = append(current.Recipe, line)
			}
			continue
		}
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			current = nil
			continue
		}
		// Variable assignment?
		if name, value, op, ok := splitAssign(line); ok {
			_ = op // `=` and `:=` both expand eagerly in this subset
			v, err := mf.Expand(value)
			if err != nil {
				return nil, fmt.Errorf("makesim: line %d: %w", lineNo, err)
			}
			mf.Vars[name] = v
			current = nil
			continue
		}
		// Rule line: target(s): prereqs.
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("makesim: line %d: expected rule or assignment: %q", lineNo, line)
		}
		tpart, err := mf.Expand(line[:colon])
		if err != nil {
			return nil, fmt.Errorf("makesim: line %d: %w", lineNo, err)
		}
		ppart, err := mf.Expand(line[colon+1:])
		if err != nil {
			return nil, fmt.Errorf("makesim: line %d: %w", lineNo, err)
		}
		targets, prereqs := strings.Fields(tpart), strings.Fields(ppart)
		if len(targets) == 0 {
			return nil, fmt.Errorf("makesim: line %d: rule with no target", lineNo)
		}
		if targets[0] == ".PHONY" {
			for _, p := range prereqs {
				mf.Phony[p] = true
			}
			current = nil
			continue
		}
		for i, t := range targets {
			r := &Rule{Target: t, Prereqs: prereqs, Pattern: strings.Contains(t, "%")}
			mf.Rules = append(mf.Rules, r)
			if i == 0 {
				current = r
			}
			if mf.DefaultTarget == "" && !r.Pattern && !strings.HasPrefix(t, ".") {
				mf.DefaultTarget = t
			}
		}
	}
	return mf, nil
}

// splitAssign recognizes NAME = value / NAME := value (not rule colons).
func splitAssign(line string) (name, value, op string, ok bool) {
	for _, candidate := range []string{":=", "="} {
		i := strings.Index(line, candidate)
		if i <= 0 {
			continue
		}
		// Reject "target: prereq" being mistaken for ":=" -- `:=` check
		// runs first, and a plain '=' must not follow a colon.
		n := strings.TrimSpace(line[:i])
		if strings.ContainsAny(n, " \t:") {
			continue
		}
		return n, strings.TrimSpace(line[i+len(candidate):]), candidate, true
	}
	return "", "", "", false
}

// maxExpansion bounds what one Expand may produce: a chain of variables
// that each reference the next twice doubles at every link.
const maxExpansion = 1 << 20

// Expand resolves $(VAR) and ${VAR} references (recursively) and the
// escaped dollar `$$`. A variable that refers to itself, directly or
// through other variables, is an error naming it, as is an expansion
// past maxExpansion bytes.
func (mf *Makefile) Expand(s string) (string, error) {
	var b strings.Builder
	if err := mf.expand(&b, s, nil); err != nil {
		return "", err
	}
	return b.String(), nil
}

// expand writes s expanded to b; active is the chain of variables being
// expanded around s.
func (mf *Makefile) expand(b *strings.Builder, s string, active []string) error {
	i := 0
	for i < len(s) {
		if b.Len() > maxExpansion {
			return fmt.Errorf("makesim: expansion exceeds %d bytes", maxExpansion)
		}
		c := s[i]
		if c != '$' {
			b.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(s) {
			b.WriteByte('$')
			break
		}
		switch s[i+1] {
		case '$':
			b.WriteByte('$')
			i += 2
		case '(', '{':
			closer := byte(')')
			if s[i+1] == '{' {
				closer = '}'
			}
			end := strings.IndexByte(s[i+2:], closer)
			if end < 0 {
				b.WriteString(s[i:])
				i = len(s)
				continue
			}
			name := s[i+2 : i+2+end]
			if slices.Contains(active, name) {
				return fmt.Errorf("makesim: variable %s references itself: %s -> %s",
					name, strings.Join(active, " -> "), name)
			}
			if err := mf.expand(b, mf.Vars[name], append(active, name)); err != nil {
				return err
			}
			i += end + 3
		default:
			// Single-char var like $@ handled by the executor; preserve.
			b.WriteByte('$')
			b.WriteByte(s[i+1])
			i += 2
		}
	}
	return nil
}

// Executor runs one expanded recipe command (argv) in the build container.
type Executor func(argv []string) error

// Runner executes makefile targets against a container file system.
type Runner struct {
	MF   *Makefile
	FS   *fsim.FS
	Cwd  string
	Exec Executor
	// built tracks targets completed in this run (make's "already up to
	// date" — without mtimes, each target builds at most once per run).
	built map[string]bool
}

// NewRunner returns a Runner for mf rooted at cwd.
func NewRunner(mf *Makefile, fs *fsim.FS, cwd string, exec Executor) *Runner {
	return &Runner{MF: mf, FS: fs, Cwd: cwd, Exec: exec, built: map[string]bool{}}
}

// abs resolves p against the runner's cwd.
func (r *Runner) abs(p string) string {
	if strings.HasPrefix(p, "/") {
		return fsim.Clean(p)
	}
	return fsim.Clean(r.Cwd + "/" + p)
}

// findRule locates the rule for target: exact match first, then the best
// (longest-stem... shortest-stem is GNU's choice; with our simple
// patterns, first match) pattern rule whose stem resolves. A pattern rule
// in inUse, the chain of rules target is being built for, is skipped: as
// in GNU make, no implicit rule appears twice in one chain, so `%: %.x`
// cannot make a from a.x from a.x.x and on.
func (r *Runner) findRule(target string, inUse []*Rule) (*Rule, string, bool) {
	for _, rule := range r.MF.Rules {
		if !rule.Pattern && rule.Target == target {
			return rule, "", true
		}
	}
	for _, rule := range r.MF.Rules {
		if !rule.Pattern || slices.Contains(inUse, rule) {
			continue
		}
		pre, post, _ := strings.Cut(rule.Target, "%")
		if strings.HasPrefix(target, pre) && strings.HasSuffix(target, post) &&
			len(target) >= len(pre)+len(post) {
			stem := target[len(pre) : len(target)-len(post)]
			return rule, stem, true
		}
	}
	return nil, "", false
}

// substStem replaces % with stem in every prereq of a pattern rule.
func substStem(prereqs []string, stem string) []string {
	out := make([]string, len(prereqs))
	for i, p := range prereqs {
		out[i] = strings.ReplaceAll(p, "%", stem)
	}
	return out
}

// Build makes target (empty = the default target), recursively building
// prerequisites first.
func (r *Runner) Build(target string) error {
	if target == "" {
		target = r.MF.DefaultTarget
	}
	if target == "" {
		return fmt.Errorf("makesim: no targets")
	}
	return r.build(target, nil, nil)
}

// build makes target; chain is the targets it is a prerequisite of, and
// rules the rules they are made by, outermost first.
func (r *Runner) build(target string, chain []string, rules []*Rule) error {
	if r.built[target] {
		return nil
	}
	for _, c := range chain {
		if c == target {
			return fmt.Errorf("makesim: circular dependency: %s -> %s",
				strings.Join(chain, " -> "), target)
		}
	}
	rule, stem, ok := r.findRule(target, rules)
	if !ok {
		// No rule: acceptable iff the file already exists (a source).
		if r.FS.Exists(r.abs(target)) {
			r.built[target] = true
			return nil
		}
		return fmt.Errorf("makesim: no rule to make target '%s'", target)
	}
	prereqs := rule.Prereqs
	if rule.Pattern {
		prereqs = substStem(rule.Prereqs, stem)
	}
	for _, p := range prereqs {
		if err := r.build(p, append(chain, target), append(rules, rule)); err != nil {
			return err
		}
	}
	for _, line := range rule.Recipe {
		cmdText, err := r.expandAutomatics(target, prereqs, line)
		if err != nil {
			return fmt.Errorf("makesim: target %s: %w", target, err)
		}
		cmds, err := shell.Parse(cmdText, shell.MapEnv(r.MF.Vars))
		if err != nil {
			return fmt.Errorf("makesim: target %s: %w", target, err)
		}
		for _, cmd := range cmds {
			if len(cmd.Argv) == 0 {
				continue
			}
			if err := r.Exec(cmd.Argv); err != nil {
				return fmt.Errorf("makesim: target %s: %w", target, err)
			}
		}
	}
	// Like real make, a recipe is not required to materialize its target
	// (it may write elsewhere); the target is simply considered made.
	r.built[target] = true
	return nil
}

// expandAutomatics substitutes $@, $<, $^ and then $(VAR) references.
func (r *Runner) expandAutomatics(target string, prereqs []string, line string) (string, error) {
	first := ""
	if len(prereqs) > 0 {
		first = prereqs[0]
	}
	line = strings.ReplaceAll(line, "$@", target)
	line = strings.ReplaceAll(line, "$<", first)
	line = strings.ReplaceAll(line, "$^", strings.Join(prereqs, " "))
	return r.MF.Expand(line)
}
