package containerfile

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzParseRender feeds Containerfile text, which comtainer build
// -containerfile reads from a user's file. Nothing panics, and whatever
// Parse accepts renders to text that parses to the same stages and
// instructions; only line numbers move, since Render keeps no comments
// or blank lines. The seed corpus in testdata/fuzz/FuzzParseRender (the
// Table-2 apps' build scripts) runs under plain `go test`.
func FuzzParseRender(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		cf, err := Parse(text)
		if err != nil {
			return
		}
		rendered := cf.Render()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("%q renders to %q, which does not parse: %v", text, rendered, err)
		}
		if got, want := withoutLines(again), withoutLines(cf); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q renders to %q, which parses to\n%+v\nnot\n%+v", text, rendered, got, want)
		}
	})
}

// withoutLines returns cf's stages with every instruction's line number
// zeroed.
func withoutLines(cf *Containerfile) []Stage {
	stages := slices.Clone(cf.Stages)
	for i := range stages {
		stages[i].Instructions = slices.Clone(stages[i].Instructions)
		for j := range stages[i].Instructions {
			stages[i].Instructions[j].Line = 0
		}
	}
	return stages
}
