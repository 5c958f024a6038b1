package cclang

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseRender feeds compiler and archiver command lines, which reach
// the system side in an image's cache layer and are untrusted input
// there. The fuzzed bytes are an argv split on NUL. Nothing panics, and
// whatever Parse or ParseArchive accepts renders to an argv that parses
// again and renders the same; a compiler command renders to the argv it
// was parsed from. The seed corpus in testdata/fuzz/FuzzParseRender (a
// Table-2 compile, a link, an LTO and PGO compile, an ar rcs) runs under
// plain `go test`.
func FuzzParseRender(f *testing.F) {
	f.Add([]byte("gcc\x00-O2\x00-c\x00a.c\x00-o\x00a.o"))
	f.Fuzz(func(t *testing.T, data []byte) {
		argv := strings.Split(string(data), "\x00")
		roundTrip := func(parser string, parseRender func([]string) ([]string, error)) []string {
			first, err := parseRender(argv)
			if err != nil {
				return nil
			}
			second, err := parseRender(first)
			if err != nil {
				t.Fatalf("%s: %q renders to %q, which does not parse: %v", parser, argv, first, err)
			}
			if !slices.Equal(second, first) {
				t.Fatalf("%s: %q renders to %q, which renders to %q", parser, argv, first, second)
			}
			return first
		}
		rendered := roundTrip("Parse", func(argv []string) ([]string, error) {
			c, err := Parse(argv)
			if err != nil {
				return nil, err
			}
			return c.Render(), nil
		})
		if rendered != nil && !slices.Equal(rendered, argv) {
			t.Fatalf("Parse: %q renders to %q", argv, rendered)
		}
		roundTrip("ParseArchive", func(argv []string) ([]string, error) {
			a, err := ParseArchive(argv)
			if err != nil {
				return nil, err
			}
			return a.Render(), nil
		})
	})
}
