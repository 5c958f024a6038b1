// Package atomicmix flags struct fields that are accessed through
// sync/atomic in one place and by plain loads or stores in another.
// Atomic operations only synchronize with other atomic operations on
// the same word: `atomic.AddInt64(&s.hits, 1)` in one goroutine and
// `s.hits++` (or even a bare read of s.hits) in another is a data
// race, and one that is easy to introduce when a counter gains a fast
// path years after it was made atomic.
//
// Per package the pass records, for every module-declared field of an
// atomically-eligible type (the fixed-size integers sync/atomic
// operates on, plus the atomic.Int64 family of value types), each
// access site classified as atomic — an `&s.f` argument to a
// sync/atomic function, or a method call on an atomic.* typed field —
// or plain. The whole-program Finish step merges the sites of all
// packages and, for each field with both kinds, reports every plain
// site, so the atomic discipline is enforced even when the atomic
// update and the plain read live in different packages.
//
// Taking a field's address outside a sync/atomic call counts as a
// plain (write) access for integer fields — the pointer may be
// written through by anyone — but is accepted silently for atomic.*
// value types, where passing &s.ctr to a helper operating on
// *atomic.Int64 is the idiomatic composition.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"comtainer/internal/analysis"
)

// Analyzer reports fields mixing sync/atomic with plain access.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "a field updated through sync/atomic must be accessed atomically everywhere; " +
		"mixing atomic and plain access to the same word is a data race",
	Run:    run,
	Finish: finish,
}

// Fact is the per-package access record atomicmix exports.
type Fact struct {
	// Fields maps field class ("pkg.Type.Field") → its access sites in
	// this package.
	Fields map[string]*Mix
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

// Mix separates one field's atomic and plain access sites.
type Mix struct {
	Atomic []Site
	Plain  []Site
}

// Site is one access.
type Site struct {
	Write bool
	Pos   token.Position
}

func run(pass *analysis.Pass) error {
	c := &collector{
		pass: pass,
		seg:  analysis.FirstSegment(pass.Pkg.Path()),
		fact: &Fact{Fields: make(map[string]*Mix)},
	}
	for _, file := range pass.Files {
		c.file(file)
	}
	if len(c.fact.Fields) > 0 {
		pass.ExportPackageFact(c.fact)
	}
	return nil
}

type collector struct {
	pass *analysis.Pass
	seg  string
	fact *Fact
}

func (c *collector) file(file *ast.File) {
	writes := analysis.WriteTargets(file)
	// consumed marks selectors already accounted for as atomic
	// operands (or silently accepted &atomicField uses); pre-order
	// traversal guarantees the consuming parent is visited first.
	consumed := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			c.call(v, consumed)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if sel, ok := ast.Unparen(v.X).(*ast.SelectorExpr); ok {
					if class, field := c.fieldClass(sel); class != "" && isAtomicType(field.Type()) {
						consumed[sel] = true // &s.ctr handed to a helper: idiomatic
					}
				}
			}
		case *ast.SelectorExpr:
			if consumed[v] {
				return true // descend: the chain below may hold more fields
			}
			class, field := c.fieldClass(v)
			if class == "" || !eligible(field.Type()) {
				return true
			}
			c.record(class, false, Site{Write: writes[v], Pos: c.pass.Fset.Position(v.Sel.Pos())})
		}
		return true
	})
}

// call records atomic access sites made by one call expression:
// sync/atomic package functions taking &s.f, and method calls on
// atomic.* typed fields.
func (c *collector) call(call *ast.CallExpr, consumed map[*ast.SelectorExpr]bool) {
	info := c.pass.TypesInfo
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// atomic.Int64-family method: the receiver chain names the field.
		funSel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		recv, ok := ast.Unparen(funSel.X).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if class, _ := c.fieldClass(recv); class != "" {
			consumed[recv] = true
			c.record(class, true, Site{Write: atomicWrites(fn.Name()), Pos: c.pass.Fset.Position(recv.Sel.Pos())})
		}
		return
	}
	// Package function: atomic.AddInt64(&s.f, 1) and friends.
	for _, arg := range call.Args {
		and, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || and.Op != token.AND {
			continue
		}
		sel, ok := ast.Unparen(and.X).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if class, _ := c.fieldClass(sel); class != "" {
			consumed[sel] = true
			c.record(class, true, Site{Write: atomicWrites(fn.Name()), Pos: c.pass.Fset.Position(sel.Sel.Pos())})
		}
	}
}

// record appends one site to the field's entry.
func (c *collector) record(class string, atomic bool, site Site) {
	mix := c.fact.Fields[class]
	if mix == nil {
		mix = &Mix{}
		c.fact.Fields[class] = mix
	}
	if atomic {
		mix.Atomic = append(mix.Atomic, site)
	} else {
		mix.Plain = append(mix.Plain, site)
	}
}

// fieldClass resolves a selector to an in-module field's class
// identity; "" for foreign fields.
func (c *collector) fieldClass(sel *ast.SelectorExpr) (string, *types.Var) {
	class, field := analysis.FieldClass(c.pass.TypesInfo, sel)
	if class == "" || field.Pkg() == nil || analysis.FirstSegment(field.Pkg().Path()) != c.seg {
		return "", nil
	}
	return class, field
}

// --- whole-program step ---

func finish(fp *analysis.FinishPass) error {
	merged := make(map[string]*Mix)
	for _, f := range fp.Facts {
		for class, mix := range f.(*Fact).Fields {
			m := merged[class]
			if m == nil {
				m = &Mix{}
				merged[class] = m
			}
			m.Atomic = append(m.Atomic, mix.Atomic...)
			m.Plain = append(m.Plain, mix.Plain...)
		}
	}
	for _, class := range analysis.SortedKeys(merged) {
		mix := merged[class]
		if len(mix.Atomic) == 0 || len(mix.Plain) == 0 {
			continue
		}
		sort.Slice(mix.Plain, func(i, j int) bool { return analysis.PosBefore(mix.Plain[i].Pos, mix.Plain[j].Pos) })
		for _, site := range mix.Plain {
			kind := "read"
			if site.Write {
				kind = "write"
			}
			fp.Report(analysis.Diagnostic{
				Pos:      site.Pos,
				Analyzer: fp.Analyzer.Name,
				Message: fmt.Sprintf("field %s mixes sync/atomic access (%d sites) with a plain %s; "+
					"atomic and non-atomic access to the same word is a data race",
					class, len(mix.Atomic), kind),
			})
		}
	}
	return nil
}

// --- helpers ---

// eligible reports field types sync/atomic can operate on: the
// fixed-size integers and the atomic.* value types.
func eligible(t types.Type) bool {
	if isAtomicType(t) {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr:
		return true
	}
	return false
}

// isAtomicType reports named types declared in sync/atomic
// (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...).
func isAtomicType(t types.Type) bool {
	path, _ := analysis.NamedTypePath(t)
	return path == "sync/atomic"
}

// atomicWrites classifies sync/atomic operation names: everything but
// the pure loads mutates.
func atomicWrites(name string) bool {
	return !strings.HasPrefix(name, "Load")
}
