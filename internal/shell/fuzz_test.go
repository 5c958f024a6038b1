package shell

import (
	"slices"
	"testing"
)

// FuzzParseRender: Parse never panics, and every command it returns,
// rendered by Command.String, parses again (with no variables) to that
// one argv. The input is a RUN line; the variables it may expand are
// fixed, one of them splitting into two words. The seeds under
// testdata/fuzz are the words String once rendered unquoted or
// half-quoted: a $ that re-expands, a separator, a comment, a
// backslash, the empty word and a newline.
func FuzzParseRender(f *testing.F) {
	f.Add(`CC=gcc make -j4 CFLAGS="-O2 -DN=$N" && cp app /usr/local/bin; echo done # built`)
	f.Fuzz(func(t *testing.T, line string) {
		cmds, err := Parse(line, MapEnv{"N": "8", "FLAGS": "-O3 -g", "EMPTY": ""})
		if err != nil {
			return
		}
		for _, c := range cmds {
			again, err := Parse(c.String(), nil)
			if err != nil {
				t.Fatalf("%q renders to %q, which does not parse: %v", c.Argv, c.String(), err)
			}
			if len(again) != 1 || !slices.Equal(again[0].Argv, c.Argv) {
				t.Fatalf("%q renders to %q, which parses to %q", c.Argv, c.String(), again)
			}
		}
	})
}
