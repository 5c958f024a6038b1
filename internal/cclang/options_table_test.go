package cclang

import (
	"strings"
	"testing"
)

// curatedSpellings is options_table.go's lists by category bucket.
var curatedSpellings = map[string][]string{
	"warning":      warningOptions,
	"optimization": optimizationFOptions,
	"codegen":      codegenFOptions,
	"machine":      machineOptions,
	"language":     languageOptions,
	"debug":        debugOptions,
	"diagnostic":   diagnosticOptions,
}

// TestAllCuratedSpellingsParse: every concretely-modeled spelling must
// parse, render back verbatim, and land in a sensible category.
func TestAllCuratedSpellingsParse(t *testing.T) {
	wantCat := map[string][]Category{
		"warning":      {CatWarning},
		"optimization": {CatOptimization, CatCodegen},
		"codegen":      {CatCodegen, CatOptimization, CatLanguage},
		"machine":      {CatMachine},
		"language":     {CatLanguage, CatOptimization, CatCodegen},
		"debug":        {CatDebug, CatOptimization, CatDiagnostic},
		"diagnostic":   {CatDiagnostic, CatOptimization, CatWarning, CatOther},
	}
	for family, spellings := range curatedSpellings {
		for _, sp := range spellings {
			argv := []string{"gcc", sp, "-c", "x.c"}
			if strings.HasPrefix(sp, "-dump") {
				// -dumpbase/-dumpdir take separate values in real GCC; the
				// family rule treats them as joined, which is fine for
				// model purposes — just ensure they parse.
				argv = []string{"gcc", sp, "-c", "x.c"}
			}
			cmd, err := Parse(argv)
			if err != nil {
				t.Errorf("%s: Parse(%s): %v", family, sp, err)
				continue
			}
			rendered := cmd.Render()
			found := false
			for _, tok := range rendered {
				if tok == sp {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: %s did not round-trip: %v", family, sp, rendered)
			}
			// Category check on the parsed token.
			okCat := false
			for _, tok := range cmd.Tokens {
				if tok.Opt == "" || tok.Opt+tok.Value != sp {
					continue
				}
				for _, want := range wantCat[family] {
					if tok.Category == want {
						okCat = true
					}
				}
			}
			if !okCat {
				// Locate the actual category for the message.
				for _, tok := range cmd.Tokens {
					if tok.Opt+tok.Value == sp {
						t.Errorf("%s: %s classified as %v", family, sp, tok.Category)
					}
				}
			}
		}
	}
}

func TestKnownSpellingsBreadth(t *testing.T) {
	n := len(exact)
	for _, list := range curatedSpellings {
		n += len(list)
	}
	if n < 300 {
		t.Errorf("concrete option coverage = %d spellings, want >= 300", n)
	}
}

func TestSanitizerAndLTOVariants(t *testing.T) {
	c := mustParse(t, "gcc", "-fsanitize=address", "-flto=thin", "-c", "x.c")
	if !c.LTO() {
		t.Error("-flto=thin not detected as LTO")
	}
	c = mustParse(t, "gcc", "-flto=auto", "-fno-lto", "-c", "x.c")
	if c.LTO() {
		t.Error("-fno-lto did not cancel -flto=auto")
	}
}

func TestStdVariants(t *testing.T) {
	for _, std := range []string{"c11", "c++20", "f2008", "gnu++17"} {
		c := mustParse(t, "gcc", "-std="+std, "-c", "x.c")
		got, ok := c.value("-std=")
		if !ok || got != std {
			t.Errorf("Std(%s) = %q, %v", std, got, ok)
		}
	}
}

func TestMachineVectorWidthFlags(t *testing.T) {
	c := mustParse(t, "gcc", "-mprefer-vector-width=512", "-mavx512f", "-c", "x.c")
	count := 0
	for _, tok := range c.Tokens {
		if tok.Opt == "-m" && tok.Category == CatMachine {
			count++
		}
	}
	if count != 2 {
		t.Errorf("machine tokens = %d, want 2", count)
	}
}
