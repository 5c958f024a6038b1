// Package cclang models GCC-style compiler-driver command lines as
// structured data.
//
// The paper's compilation model for .o/.so nodes is "structural data
// representing GCC command lines", extracted "by systematically reviewing
// the entire GCC user manual" (§4.3), and the front-end "needs to parse
// command lines ... particularly challenging due to their complexity (2314
// options in total)" (§4.5). This package provides the same capability for
// the simulated toolchain: a categorized option table covering the driver
// option syntaxes (flags, joined, separate, joined-or-separate), a parser
// that turns argv into a semantic Command, a renderer that reproduces argv,
// and a rewriting API the system adapters use to retarget compilations.
package cclang

// Style describes how an option consumes its value.
type Style uint8

// Option syntaxes in the GCC driver.
const (
	// StyleFlag takes no value: -c, -v, -shared.
	StyleFlag Style = iota
	// StyleJoined has the value glued to the option: -O2, -std=c++17.
	StyleJoined
	// StyleSeparate takes the value as the next argv element: -o file.
	StyleSeparate
	// StyleJoinedOrSeparate accepts either form: -Idir and -I dir.
	StyleJoinedOrSeparate
)

// Category groups options by what part of the pipeline they steer; the
// adapters use categories to decide what is safe to rewrite.
type Category uint8

// Option categories.
const (
	CatMode Category = iota // -c, -S, -E: which pipeline stages run
	CatOutput
	CatInputControl // -x, -include...
	CatPreprocessor // -D, -U, -I...
	CatOptimization // -O*, -f* optimization switches
	CatCodegen      // -f codegen, -fPIC, -fprofile*
	CatMachine      // -m*, -march, -mtune
	CatWarning      // -W*, -w, -pedantic
	CatDebug        // -g*
	CatLinker       // -L, -l, -shared, -static, -Wl...
	CatLanguage     // -std=, -ansi
	CatDiagnostic   // -v, -###, --version
	CatOther
)

// Spec describes one driver option.
type Spec struct {
	Name     string // including leading dash(es)
	Style    Style
	Category Category
}

// exact lists options matched verbatim (for StyleFlag) or as a prefix of
// the argument with the remainder as value (for StyleJoined where Name ends
// without '='; "-std=" style names include the '=').
var exact = []Spec{
	// Pipeline-mode options.
	{"-c", StyleFlag, CatMode},
	{"-S", StyleFlag, CatMode},
	{"-E", StyleFlag, CatMode},

	// Output.
	{"-o", StyleJoinedOrSeparate, CatOutput},

	// Input control.
	{"-x", StyleJoinedOrSeparate, CatInputControl},
	{"-include", StyleSeparate, CatInputControl},
	{"-imacros", StyleSeparate, CatInputControl},

	// Preprocessor.
	{"-D", StyleJoinedOrSeparate, CatPreprocessor},
	{"-U", StyleJoinedOrSeparate, CatPreprocessor},
	{"-I", StyleJoinedOrSeparate, CatPreprocessor},
	{"-isystem", StyleJoinedOrSeparate, CatPreprocessor},
	{"-iquote", StyleJoinedOrSeparate, CatPreprocessor},
	{"-idirafter", StyleJoinedOrSeparate, CatPreprocessor},
	{"-iprefix", StyleSeparate, CatPreprocessor},
	{"-nostdinc", StyleFlag, CatPreprocessor},
	{"-M", StyleFlag, CatPreprocessor},
	{"-MM", StyleFlag, CatPreprocessor},
	{"-MD", StyleFlag, CatPreprocessor},
	{"-MMD", StyleFlag, CatPreprocessor},
	{"-MP", StyleFlag, CatPreprocessor},
	{"-MF", StyleSeparate, CatPreprocessor},
	{"-MT", StyleSeparate, CatPreprocessor},
	{"-MQ", StyleSeparate, CatPreprocessor},
	{"-P", StyleFlag, CatPreprocessor},
	{"-C", StyleFlag, CatPreprocessor},
	{"-H", StyleFlag, CatPreprocessor},
	{"-trigraphs", StyleFlag, CatPreprocessor},

	// Language / standards.
	{"-std=", StyleJoined, CatLanguage},
	{"-ansi", StyleFlag, CatLanguage},
	{"-fno-exceptions", StyleFlag, CatLanguage},
	{"-fexceptions", StyleFlag, CatLanguage},
	{"-frtti", StyleFlag, CatLanguage},
	{"-fno-rtti", StyleFlag, CatLanguage},

	// Debug.
	{"-g", StyleJoined, CatDebug}, // -g, -g0..3, -ggdb, -gdwarf-5 all share the prefix
	{"-p", StyleFlag, CatDebug},
	{"-pg", StyleFlag, CatDebug},

	// Warnings.
	{"-w", StyleFlag, CatWarning},
	{"-pedantic", StyleFlag, CatWarning},
	{"-pedantic-errors", StyleFlag, CatWarning},

	// Optimization family head; the -O joined family covers -O0..-O3, -Os,
	// -Ofast, -Og, -Oz and bare -O.
	{"-O", StyleJoined, CatOptimization},

	// Linker-facing options.
	{"-L", StyleJoinedOrSeparate, CatLinker},
	{"-l", StyleJoinedOrSeparate, CatLinker},
	{"-shared", StyleFlag, CatLinker},
	{"-static", StyleFlag, CatLinker},
	{"-static-libgcc", StyleFlag, CatLinker},
	{"-static-libstdc++", StyleFlag, CatLinker},
	{"-rdynamic", StyleFlag, CatLinker},
	{"-s", StyleFlag, CatLinker},
	{"-nostdlib", StyleFlag, CatLinker},
	{"-nodefaultlibs", StyleFlag, CatLinker},
	{"-nostartfiles", StyleFlag, CatLinker},
	{"-pie", StyleFlag, CatLinker},
	{"-no-pie", StyleFlag, CatLinker},
	{"-pthread", StyleFlag, CatLinker},
	{"-T", StyleSeparate, CatLinker},
	{"-u", StyleJoinedOrSeparate, CatLinker},
	{"-z", StyleSeparate, CatLinker},
	{"-Xlinker", StyleSeparate, CatLinker},
	{"-Xpreprocessor", StyleSeparate, CatPreprocessor},
	{"-Xassembler", StyleSeparate, CatOther},
	{"-Wl,", StyleJoined, CatLinker},
	{"-Wp,", StyleJoined, CatPreprocessor},
	{"-Wa,", StyleJoined, CatOther},

	// Diagnostics / driver behavior.
	{"-v", StyleFlag, CatDiagnostic},
	{"-###", StyleFlag, CatDiagnostic},
	{"--version", StyleFlag, CatDiagnostic},
	{"--help", StyleFlag, CatDiagnostic},
	{"-dumpversion", StyleFlag, CatDiagnostic},
	{"-dumpmachine", StyleFlag, CatDiagnostic},
	{"-print-search-dirs", StyleFlag, CatDiagnostic},
	{"-print-file-name=", StyleJoined, CatDiagnostic},
	{"-pipe", StyleFlag, CatOther},
	{"-Q", StyleFlag, CatDiagnostic},
	{"--param", StyleSeparate, CatOptimization},
	{"-specs=", StyleJoined, CatOther},
	{"-wrapper", StyleSeparate, CatOther},
}

// families are open-ended option namespaces matched by prefix when no exact
// spec applies. GCC's thousands of options overwhelmingly live here.
var families = []Spec{
	{"-W", StyleJoined, CatWarning},      // -Wall, -Werror=..., -Wno-unused...
	{"-f", StyleJoined, CatOptimization}, // -funroll-loops, -fomit-frame-pointer...
	{"-m", StyleJoined, CatMachine},      // -march=, -mtune=, -mavx2, -msse4.1...
	{"-d", StyleJoined, CatDiagnostic},   // dump switches
	{"-no", StyleJoined, CatOther},
	{"--", StyleJoined, CatOther},
}

// codegenPrefixes identifies -f options that affect code generation rather
// than optimization proper; the distinction matters to adapters that must
// preserve ABI-relevant switches while retuning optimization.
var codegenPrefixes = []string{
	"-fPIC", "-fpic", "-fPIE", "-fpie", "-fprofile", "-fcoverage", "-flto",
	"-ffat-lto-objects", "-fno-lto", "-fopenmp", "-fstack-protector",
	"-fvisibility", "-fcf-protection", "-ffunction-sections", "-fdata-sections",
}

// lookup finds the Spec matching arg, returning the spec, the value already
// joined to it (if any), and whether a match was found. Longest exact names
// win (e.g. -static-libgcc before -static, -MF before -M).
func lookup(arg string) (Spec, string, bool) {
	best := Spec{}
	bestLen := -1
	for _, s := range exact {
		switch s.Style {
		case StyleFlag:
			if arg == s.Name && len(s.Name) > bestLen {
				best, bestLen = s, len(s.Name)
			}
		case StyleJoined:
			if len(arg) >= len(s.Name) && arg[:len(s.Name)] == s.Name && len(s.Name) > bestLen {
				best, bestLen = s, len(s.Name)
			}
		case StyleSeparate:
			if arg == s.Name && len(s.Name) > bestLen {
				best, bestLen = s, len(s.Name)
			}
		case StyleJoinedOrSeparate:
			if len(arg) >= len(s.Name) && arg[:len(s.Name)] == s.Name && len(s.Name) > bestLen {
				best, bestLen = s, len(s.Name)
			}
		}
	}
	if bestLen >= 0 {
		switch best.Style {
		case StyleFlag, StyleSeparate:
			return best, "", true
		default:
			return best, arg[len(best.Name):], true
		}
	}
	for _, s := range families {
		if len(arg) > len(s.Name) && arg[:len(s.Name)] == s.Name {
			sp := s
			// Refine -f classification into codegen vs optimization.
			if s.Name == "-f" {
				for _, p := range codegenPrefixes {
					if len(arg) >= len(p) && arg[:len(p)] == p {
						sp.Category = CatCodegen
						break
					}
				}
			}
			return sp, arg[len(s.Name):], true
		}
	}
	return Spec{}, "", false
}
