package analysis_test

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"comtainer/internal/analysis"
)

// reachAllow is what stays although no binary reaches it, and why. Like
// the budgets of scripts/bans.sh, reachAllowBudget only goes down. (Two
// test accessors named Len left it when oci.Sized began asking readers
// for theirs: a call through an interface keeps every method of that
// name alive — see below.)
var reachAllow = map[string]string{
	"comtainer/internal/fsim.(FS).Equal":                      "the tree-equality oracle of ~25 test sites in five packages",
	"comtainer/internal/core/cache.IsObfuscated":              "test accessor of another package (core)",
	"comtainer/internal/core/model.(ImageModel).File":         "test accessor of other packages (frontend, core)",
	"comtainer/internal/distrib.(Client).ListTags":            "test accessor of other packages (registry, fleet)",
	"comtainer/internal/distrib.(DiskStore).Root":             "test accessor of another package (registry)",
	"comtainer/internal/registry.(Server).Uploads":            "test accessor of another package (fleet)",
	"comtainer/internal/remoteexec.(TaskStatus).Terminal":     "test accessor of another package (bench)",
	"comtainer/internal/dpkg.(Package).ID":                    "test accessor of another package (sysprofile)",
	"comtainer/internal/containerfile.(Containerfile).Render": "ROADMAP 2(c): parse/render round-trip oracle",
	"comtainer/internal/cclang.(ArchiveCommand).Render":       "ROADMAP 2(c): parse/render round-trip oracle",
	"comtainer/internal/fleet.DecodeRing":                     "ROADMAP 2(c): ring round-trip oracle",
	"comtainer/internal/fleet.(Ring).Encode":                  "ROADMAP 2(c): the other half of DecodeRing's round trip",
	"comtainer/internal/core/adapter.March":                   "ROADMAP 8: perturbation axis; the ablation benchmark",
	"comtainer/internal/actioncache.(Breaker).State":          "ROADMAP 1(a): to become a view over obs counters",
	"comtainer/internal/actioncache.(Breaker).Shed":           "ROADMAP 1(a): to become a view over obs counters",
	"comtainer/internal/fleet.(Proxy).CacheStats":             "ROADMAP 1(a): to become a view over obs counters",
}

const reachAllowBudget = 16

// TestExportsReachABinary is the rule "the product is what a binary can
// reach" as a ratchet: every exported function or method under internal/
// (outside the test seams faultinject and analysis/...) is used by something
// a main, an init or a package-level initialiser leads to, or is on
// reachAllow. An edge is an identifier in a function; calling an interface
// method keeps every same-named method of the module alive, and so does
// implementing an interface of a package outside the module, whose callers
// the loader does not see. Both over-approximate: nothing live is reported.
func TestExportsReachABinary(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	foreign := foreignMethods(pkgs)
	edges := map[string][]string{} // from a FuncID, "" (the roots) or "~Name" (every method so named)
	var exported []string
	uses := func(pkg *analysis.Package, from string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				to := analysis.FuncID(fn.Origin())
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					to = "~" + fn.Name()
				}
				edges[from] = append(edges[from], to)
			}
			return true
		})
	}
	for _, pkg := range pkgs {
		seam := strings.Contains(pkg.Path, "/internal/faultinject") || strings.Contains(pkg.Path, "/internal/analysis")
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					uses(pkg, "", decl) // package-level initialisers
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				id, name := analysis.FuncID(fn), fn.Name()
				switch recv := fn.Type().(*types.Signature).Recv(); {
				case recv != nil:
					edges["~"+name] = append(edges["~"+name], id)
					// Package errors finds three through interfaces it declares inline.
					called := name == "Unwrap" || name == "Is" || name == "As"
					for _, iface := range foreign[name] {
						called = called || types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)
					}
					if called {
						edges[""] = append(edges[""], id)
					}
				case name == "init", name == "main" && pkg.Types.Name() == "main":
					id = "" // a root: what it uses is live
				}
				uses(pkg, id, fd)
				if fd.Name.IsExported() && strings.Contains(pkg.Path, "/internal/") && !seam {
					exported = append(exported, id)
				}
			}
		}
	}
	live := map[string]bool{}
	for work := []string{""}; len(work) > 0; {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		if !live[id] {
			live[id] = true
			work = append(work, edges[id]...)
		}
	}
	found := 0
	for _, id := range exported {
		_, allowed := reachAllow[id]
		switch {
		case allowed && !live[id]:
			found++
		case allowed:
			t.Errorf("%s is reachable now: take it off reachAllow and lower reachAllowBudget", id)
		case !live[id]:
			t.Errorf("%s: no binary reaches it — delete it with its tests, or say in reachAllow why it stays", id)
		}
	}
	if found != len(reachAllow) || found > reachAllowBudget {
		t.Errorf("reachAllow: %d entries, %d of them unreached exports of internal/ (drop the rest), budget %d (it only goes down)", len(reachAllow), found, reachAllowBudget)
	}
}

// foreignMethods maps a method name to the interfaces declaring it outside
// the module, error among them: fmt calls String, sort Less, json MarshalJSON.
func foreignMethods(pkgs []*analysis.Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, _ := t.Underlying().(*types.Interface)
		for i := 0; iface != nil && i < iface.NumMethods(); i++ {
			out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if seen[imp] || strings.HasPrefix(imp.Path(), "comtainer") {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	return out
}
