package dpkg

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"

	"comtainer/internal/fsim"
)

// Locations of the dpkg database inside an image file system.
const (
	StatusPath = "/var/lib/dpkg/status"
	InfoDir    = "/var/lib/dpkg/info"
)

// DB is the set of packages installed in an image, as recorded by the
// status file and per-package file lists.
type DB struct {
	packages map[string]*Package
	// owner maps each installed file path to the owning package name.
	owner map[string]string
}

// NewDB returns an empty installed-package database.
func NewDB() *DB {
	return &DB{packages: make(map[string]*Package), owner: make(map[string]string)}
}

// Installed returns the installed package with the given name.
func (db *DB) Installed(name string) (*Package, bool) {
	p, ok := db.packages[name]
	return p, ok
}

// Names returns the sorted names of all installed packages.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.packages))
	for n := range db.packages {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// OwnerOf returns the package owning path, if any.
func (db *DB) OwnerOf(path string) (string, bool) {
	name, ok := db.owner[fsim.Clean(path)]
	return name, ok
}

// checkConflicts verifies pkg can coexist with the installed set: nothing
// installed satisfies pkg's Conflicts, and pkg satisfies no installed
// package's Conflicts. Upgrades of the same name are exempt.
func (db *DB) checkConflicts(pkg *Package) error {
	for _, c := range pkg.Conflicts {
		if c.Name == pkg.Name {
			continue
		}
		if cur, ok := db.packages[c.Name]; ok && cur.Satisfies(c) {
			return fmt.Errorf("dpkg: %s conflicts with installed %s %s", pkg.Name, cur.Name, cur.Version)
		}
	}
	for _, cur := range db.packages {
		if cur.Name == pkg.Name {
			continue
		}
		for _, c := range cur.Conflicts {
			if pkg.Satisfies(c) {
				return fmt.Errorf("dpkg: installed %s conflicts with %s %s", cur.Name, pkg.Name, pkg.Version)
			}
		}
	}
	return nil
}

// Install writes pkg's files into fsys, records them in the db, and updates
// the on-image status database. It does not resolve dependencies — use
// InstallWithDeps for that.
func (db *DB) Install(fsys *fsim.FS, pkg *Package) error {
	if err := db.install(fsys, pkg); err != nil {
		return err
	}
	return db.writeStatus(fsys)
}

// install is Install but for the status file. A failed install leaves
// db.packages as it found it, so the status file the last successful one
// would write is still the right one.
func (db *DB) install(fsys *fsim.FS, pkg *Package) error {
	if err := db.checkConflicts(pkg); err != nil {
		return err
	}
	if existing, ok := db.packages[pkg.Name]; ok {
		// Reinstalling replaces: drop old file ownership and files that the
		// new version no longer ships.
		newPaths := make(map[string]bool, len(pkg.Files))
		for _, f := range pkg.Files {
			newPaths[fsim.Clean(f.Path)] = true
		}
		for _, f := range existing.Files {
			p := fsim.Clean(f.Path)
			delete(db.owner, p)
			if !newPaths[p] && fsys.Exists(p) {
				if err := fsys.Remove(p); err != nil {
					return fmt.Errorf("dpkg: removing stale file %s: %w", p, err)
				}
			}
		}
	}
	var list []string
	for _, f := range pkg.Files {
		p := fsim.Clean(f.Path)
		if f.Link != "" {
			fsys.Symlink(f.Link, p)
		} else {
			fsys.WriteFile(p, f.Data, fs.FileMode(f.Mode))
		}
		db.owner[p] = pkg.Name
		list = append(list, p)
	}
	db.packages[pkg.Name] = pkg
	sort.Strings(list)
	fsys.WriteFile(InfoDir+"/"+pkg.Name+".list", []byte(strings.Join(list, "\n")+"\n"), 0o644)
	return nil
}

// InstallWithDeps resolves pkg's dependency closure against idx and
// installs everything in topological order, then pkg itself. The status
// file is written once, after the last install, and also when one fails
// partway: it then lists what was installed before the failure.
func (db *DB) InstallWithDeps(fsys *fsim.FS, idx *Index, pkg *Package) error {
	order, err := idx.Resolve(pkg.Depends)
	if err != nil {
		return fmt.Errorf("dpkg: resolving dependencies of %s: %w", pkg.Name, err)
	}
	installed := false
	for _, dep := range order {
		if cur, ok := db.packages[dep.Name]; ok && !cur.Version.Less(dep.Version) {
			continue
		}
		if err = db.install(fsys, dep); err != nil {
			break
		}
		installed = true
	}
	if err == nil {
		if err = db.install(fsys, pkg); err == nil {
			installed = true
		}
	}
	if installed {
		if werr := db.writeStatus(fsys); err == nil {
			err = werr
		}
	}
	return err
}

// Remove deletes pkg's files from fsys and the database.
func (db *DB) Remove(fsys *fsim.FS, name string) error {
	pkg, ok := db.packages[name]
	if !ok {
		return fmt.Errorf("dpkg: package %s is not installed", name)
	}
	for _, f := range pkg.Files {
		p := fsim.Clean(f.Path)
		delete(db.owner, p)
		if fsys.Exists(p) {
			if err := fsys.Remove(p); err != nil {
				return err
			}
		}
	}
	delete(db.packages, name)
	if err := fsys.Remove(InfoDir + "/" + name + ".list"); err != nil && !errors.Is(err, fsim.ErrNotExist) {
		return fmt.Errorf("dpkg: removing file list of %s: %w", name, err)
	}
	return db.writeStatus(fsys)
}

// writeStatus serializes the database as control stanzas to StatusPath.
func (db *DB) writeStatus(fsys *fsim.FS) error {
	var b bytes.Buffer
	// A value ParseControl joined from continuation lines goes out as
	// continuation lines again.
	field := func(name, value string) {
		b.WriteString(name)
		b.WriteString(": ")
		b.WriteString(strings.ReplaceAll(value, "\n", "\n "))
		b.WriteByte('\n')
	}
	for _, name := range db.Names() {
		p := db.packages[name]
		field("Package", p.Name)
		field("Status", "install ok installed")
		field("Version", string(p.Version))
		if p.Architecture != "" {
			field("Architecture", p.Architecture)
		}
		if p.Section != "" {
			field("Section", p.Section)
		}
		if len(p.Depends) > 0 {
			deps := make([]string, len(p.Depends))
			for i, d := range p.Depends {
				deps[i] = d.String()
			}
			field("Depends", strings.Join(deps, ", "))
		}
		if len(p.Conflicts) > 0 {
			cs := make([]string, len(p.Conflicts))
			for i, c := range p.Conflicts {
				cs[i] = c.String()
			}
			field("Conflicts", strings.Join(cs, ", "))
		}
		if len(p.Provides) > 0 {
			field("Provides", strings.Join(p.Provides, ", "))
		}
		if p.Optimized {
			field("Optimized", "yes")
		}
		if p.Vendor != "" {
			field("Vendor", p.Vendor)
		}
		if p.PerfGain > 1 {
			field("Perf-Gain", strconv.FormatFloat(p.PerfGain, 'f', -1, 64))
		}
		if p.Description != "" {
			field("Description", p.Description)
		}
		b.WriteString("\n")
	}
	fsys.WriteFile(StatusPath, b.Bytes(), 0o644)
	return nil
}

// Load parses the dpkg database out of an image file system. Images without
// a status file yield an empty database. The status file and each file
// list are converted to a string once, and what Load keeps of them is
// substrings of that.
func Load(fsys *fsim.FS) (*DB, error) {
	db := NewDB()
	if !fsys.Exists(StatusPath) {
		return db, nil
	}
	data, err := fsys.ReadFile(StatusPath)
	if err != nil {
		return nil, err
	}
	stanzas, err := ParseControl(string(data))
	if err != nil {
		return nil, fmt.Errorf("dpkg: parsing %s: %w", StatusPath, err)
	}
	for _, st := range stanzas {
		pkg, err := packageFromStanza(st)
		if err != nil {
			return nil, err
		}
		db.packages[pkg.Name] = pkg
		listPath := InfoDir + "/" + pkg.Name + ".list"
		if fsys.Exists(listPath) {
			listData, err := fsys.ReadFile(listPath)
			if err != nil {
				return nil, err
			}
			for rest := strings.TrimSpace(string(listData)); rest != ""; {
				var line string
				line, rest, _ = strings.Cut(rest, "\n")
				if line == "" {
					continue
				}
				p := fsim.Clean(line)
				db.owner[p] = pkg.Name
				if file, err := fsys.Stat(p); err == nil && file.Type == fsim.TypeRegular {
					pkg.Files = append(pkg.Files, PackageFile{Path: p, Data: file.Data, Mode: uint32(file.Mode)})
				}
			}
		}
	}
	return db, nil
}

// Stanza is one control-file paragraph as ordered field/value pairs.
type Stanza map[string]string

// ParseControl splits a Debian control file into stanzas. It reads text
// in place: a field name or a one-line value is a substring of it. A line
// ends at "\n", a "\r" before it is dropped, and a line may be any length.
func ParseControl(text string) ([]Stanza, error) {
	var out []Stanza
	cur := Stanza{}
	lastField := ""
	lineNo := 0
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSuffix(line, "\r")
		lineNo++
		switch {
		case strings.TrimSpace(line) == "":
			if len(cur) > 0 {
				out = append(out, cur)
				cur = Stanza{}
				lastField = ""
			}
		case line[0] == ' ' || line[0] == '\t':
			// Continuation line.
			if lastField == "" {
				return nil, fmt.Errorf("dpkg: line %d: continuation with no preceding field", lineNo)
			}
			cur[lastField] += "\n" + strings.TrimSpace(line)
		default:
			field, value, ok := strings.Cut(line, ":")
			if !ok {
				return nil, fmt.Errorf("dpkg: line %d: malformed field %q", lineNo, line)
			}
			lastField = strings.TrimSpace(field)
			cur[lastField] = strings.TrimSpace(value)
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out, nil
}

// packageFromStanza builds a Package from a parsed control stanza.
func packageFromStanza(st Stanza) (*Package, error) {
	name := st["Package"]
	if name == "" {
		return nil, fmt.Errorf("dpkg: stanza missing Package field: %v", st)
	}
	p := &Package{
		Name:         name,
		Version:      Version(st["Version"]),
		Architecture: st["Architecture"],
		Section:      st["Section"],
		Description:  st["Description"],
		Optimized:    st["Optimized"] == "yes",
		Vendor:       st["Vendor"],
	}
	if g := st["Perf-Gain"]; g != "" {
		v, err := strconv.ParseFloat(g, 64)
		if err != nil {
			return nil, fmt.Errorf("dpkg: package %s has invalid Perf-Gain %q", name, g)
		}
		// A gain of 1 or less (or NaN) is no gain, which writeStatus
		// writes by leaving the field out.
		if v > 1 {
			p.PerfGain = v
		}
	}
	if deps := st["Depends"]; deps != "" {
		for _, part := range strings.Split(deps, ",") {
			d, err := ParseDependency(part)
			if err != nil {
				return nil, fmt.Errorf("dpkg: package %s: %w", name, err)
			}
			p.Depends = append(p.Depends, d)
		}
	}
	if conf := st["Conflicts"]; conf != "" {
		for _, part := range strings.Split(conf, ",") {
			d, err := ParseDependency(part)
			if err != nil {
				return nil, fmt.Errorf("dpkg: package %s: %w", name, err)
			}
			p.Conflicts = append(p.Conflicts, d)
		}
	}
	if prov := st["Provides"]; prov != "" {
		for _, part := range strings.Split(prov, ",") {
			p.Provides = append(p.Provides, strings.TrimSpace(part))
		}
	}
	return p, nil
}
