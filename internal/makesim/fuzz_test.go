package makesim

import (
	"strings"
	"testing"

	"comtainer/internal/fsim"
)

// builtSentinel is the command FuzzMakefile appends to every recipe, so
// the executor sees each time a target's recipe runs.
const builtSentinel = "makesim-fuzz-built"

// FuzzMakefile: a Makefile is a user's file (`RUN make` in a
// Containerfile). Parse and then Build of the default target, on an
// in-memory file system with an executor that does nothing, never
// panic, and the build ends: with an error, or with each target's
// recipe run at most once. The seeds under testdata/fuzz include the
// two inputs that once ran out of stack: a self-referential variable and
// a pattern rule chained onto itself.
func FuzzMakefile(f *testing.F) {
	f.Add(demoMakefile)
	f.Add("a: b\n\ttouch a\nb: a\n\ttouch b\n")
	f.Add("X := 1\nY = $(X)$(X)\nall: $(Y).o\n%.o: %.c\n\tcc -c $< -o $@\n%.c:\n\techo $^\n")
	f.Fuzz(func(t *testing.T, text string) {
		mf, err := Parse(text)
		if err != nil {
			return
		}
		for _, rule := range mf.Rules {
			rule.Recipe = append(rule.Recipe, builtSentinel+" $@")
		}
		fs := fsim.New()
		fs.WriteFile("/w/main.c", []byte("int main(){}"), 0o644)
		runs := map[string]int{}
		r := NewRunner(mf, fs, "/w", func(argv []string) error {
			if len(argv) == 2 && argv[0] == builtSentinel {
				runs[argv[1]]++
			}
			return nil
		})
		if err := r.Build(""); err != nil {
			return
		}
		for target := range r.built {
			// A target with a shell or make metacharacter reaches the
			// sentinel as some other word, or as none.
			if strings.ContainsFunc(target, func(c rune) bool {
				return !strings.ContainsRune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._/+-", c)
			}) {
				return
			}
		}
		for target, n := range runs {
			if n > 1 {
				t.Fatalf("target %s built %d times", target, n)
			}
		}
	})
}
