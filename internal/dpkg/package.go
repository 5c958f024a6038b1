package dpkg

import (
	"fmt"
	"sort"
	"strings"
)

// Dependency is one element of a package's Depends list.
type Dependency struct {
	Name    string
	Op      ConstraintOp
	Version Version
}

// String renders the dependency in control-file syntax,
// e.g. "libc6 (>= 2.36)".
func (d Dependency) String() string {
	if d.Op == OpAny {
		return d.Name
	}
	return fmt.Sprintf("%s (%s %s)", d.Name, d.Op, d.Version)
}

// ParseDependency parses control-file dependency syntax.
func ParseDependency(s string) (Dependency, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if s == "" || strings.ContainsAny(s, " \t") {
			return Dependency{}, fmt.Errorf("dpkg: invalid dependency %q", s)
		}
		return Dependency{Name: s}, nil
	}
	name := strings.TrimSpace(s[:open])
	rest := strings.TrimSpace(s[open+1:])
	if !strings.HasSuffix(rest, ")") {
		return Dependency{}, fmt.Errorf("dpkg: unterminated version constraint in %q", s)
	}
	rest = strings.TrimSuffix(rest, ")")
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return Dependency{}, fmt.Errorf("dpkg: malformed version constraint in %q", s)
	}
	op := ConstraintOp(fields[0])
	switch op {
	case OpLT, OpLE, OpEQ, OpGE, OpGT:
	default:
		return Dependency{}, fmt.Errorf("dpkg: unknown relation %q in %q", fields[0], s)
	}
	return Dependency{Name: name, Op: op, Version: Version(fields[1])}, nil
}

// PackageFile is one file shipped by a package. When Link is non-empty the
// entry is a symlink to Link instead of a regular file (the lib.so ->
// lib.so.N convention).
type PackageFile struct {
	Path string
	Data []byte
	Mode uint32
	Link string
}

// Package is a single installable package at a specific version.
type Package struct {
	Name         string
	Version      Version
	Architecture string
	Section      string
	Description  string
	Depends      []Dependency
	Conflicts    []Dependency
	Provides     []string
	Files        []PackageFile

	// Optimized marks a system-side vendor build of the package (the
	// replacements the libo adapter installs). Vendor identifies who built
	// it, and PerfGain is the library-level speedup factor its optimized
	// routines deliver relative to the default build (1.0 = none).
	Optimized bool
	Vendor    string
	PerfGain  float64
}

// ID returns the name=version identity of the package.
func (p *Package) ID() string { return p.Name + "=" + string(p.Version) }

// Satisfies reports whether this package satisfies dep, either directly or
// through Provides.
func (p *Package) Satisfies(dep Dependency) bool {
	if p.Name == dep.Name {
		return p.Version.Satisfies(dep.Op, dep.Version)
	}
	for _, prov := range p.Provides {
		// Provided (virtual) names satisfy only unversioned deps.
		if prov == dep.Name && dep.Op == OpAny {
			return true
		}
	}
	return false
}

// Index is a package repository: the available packages, possibly several
// versions of each.
type Index struct {
	packages map[string][]*Package
}

// NewIndex returns an empty repository index.
func NewIndex() *Index {
	return &Index{packages: make(map[string][]*Package)}
}

// Add inserts a package into the index, keeping each name's version list
// sorted descending (newest first).
func (idx *Index) Add(p *Package) {
	list := append(idx.packages[p.Name], p)
	sort.Slice(list, func(i, j int) bool { return list[j].Version.Less(list[i].Version) })
	idx.packages[p.Name] = list
}

// Names returns the sorted package names available.
func (idx *Index) Names() []string {
	out := make([]string, 0, len(idx.packages))
	for n := range idx.packages {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Latest returns the newest version of name.
func (idx *Index) Latest(name string) (*Package, bool) {
	list := idx.packages[name]
	if len(list) == 0 {
		return nil, false
	}
	return list[0], true
}

// Find returns the newest package satisfying dep, searching direct names
// first and then virtual provides.
func (idx *Index) Find(dep Dependency) (*Package, bool) {
	for _, p := range idx.packages[dep.Name] {
		if p.Satisfies(dep) {
			return p, true
		}
	}
	if dep.Op == OpAny {
		for _, name := range idx.Names() {
			for _, p := range idx.packages[name] {
				if p.Satisfies(dep) {
					return p, true
				}
			}
		}
	}
	return nil, false
}

// All returns every package in the index (all versions), sorted by name
// then descending version.
func (idx *Index) All() []*Package {
	var out []*Package
	for _, name := range idx.Names() {
		out = append(out, idx.packages[name]...)
	}
	return out
}

// Pinned derives an index in which every named package is restricted to
// its pinned version; unpinned names keep all versions. It is how a
// redirect reproduces exact package versions while still resolving
// transitive dependencies.
func (idx *Index) Pinned(pins map[string]Version) *Index {
	out := NewIndex()
	for _, p := range idx.All() {
		if want, ok := pins[p.Name]; ok && p.Version.Compare(want) != 0 {
			continue
		}
		out.Add(p)
	}
	return out
}

// Resolve computes an installation order for deps: a topologically sorted
// list (dependencies before dependents) of the packages needed, deduplicated.
// It fails on missing packages or dependency cycles.
func (idx *Index) Resolve(deps []Dependency) ([]*Package, error) {
	var order []*Package
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(dep Dependency, chain []string) error
	visit = func(dep Dependency, chain []string) error {
		p, ok := idx.Find(dep)
		if !ok {
			return fmt.Errorf("dpkg: no package satisfies %s (required via %s)",
				dep, strings.Join(chain, " -> "))
		}
		switch state[p.Name] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("dpkg: dependency cycle: %s -> %s",
				strings.Join(chain, " -> "), p.Name)
		}
		state[p.Name] = 1
		for _, d := range p.Depends {
			if err := visit(d, append(chain, p.Name)); err != nil {
				return err
			}
		}
		state[p.Name] = 2
		order = append(order, p)
		return nil
	}
	for _, dep := range deps {
		if err := visit(dep, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}
