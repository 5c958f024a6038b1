package makesim

import (
	"strings"
	"testing"

	"comtainer/internal/fsim"
)

const demoMakefile = `# demo build
CC := gcc
CFLAGS = -O2 -Wall
OBJS := main.o phys.o

.PHONY: all clean

all: app

app: $(OBJS)
	$(CC) $(CFLAGS) $^ -o $@

%.o: %.c
	$(CC) $(CFLAGS) -c $< -o $@

clean:
	rm -f app $(OBJS)
`

func TestParse(t *testing.T) {
	mf, err := Parse(demoMakefile)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Vars["CC"] != "gcc" {
		t.Errorf("CC = %q", mf.Vars["CC"])
	}
	if mf.Vars["OBJS"] != "main.o phys.o" {
		t.Errorf("OBJS = %q", mf.Vars["OBJS"])
	}
	if mf.DefaultTarget != "all" {
		t.Errorf("default = %q", mf.DefaultTarget)
	}
	if !mf.Phony["all"] || !mf.Phony["clean"] {
		t.Errorf("phony = %v", mf.Phony)
	}
	targets := map[string]bool{}
	for _, r := range mf.Rules {
		targets[r.Target] = true
	}
	for _, want := range []string{"all", "app", "clean"} {
		if !targets[want] {
			t.Errorf("targets missing %s: %v", want, targets)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"\techo orphan recipe\n",
		"not a rule or assignment\n",
		": no-target\n",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestExpand(t *testing.T) {
	mf := &Makefile{Vars: map[string]string{"A": "x", "B": "$(A)y", "C": "${B}z"}}
	if got, err := mf.Expand("$(C)"); got != "xyz" || err != nil {
		t.Errorf("Expand = %q, %v", got, err)
	}
	if got, err := mf.Expand("$$HOME $(MISSING)"); got != "$HOME " || err != nil {
		t.Errorf("Expand = %q, %v", got, err)
	}
}

// A variable that refers to itself, at once or through another, is an
// error naming it, not an unbounded recursion.
func TestSelfReferentialVariable(t *testing.T) {
	for _, tc := range []struct{ text, name string }{
		{"A = $$(A)\nall:\n\techo $(A)\n", "A"},
		{"A = $$(B)\nB = $${A}\nall:\n\techo $(B)\n", "B"},
	} {
		mf, err := Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		err = NewRunner(mf, fsim.New(), "/", func([]string) error { return nil }).Build("")
		if err == nil || !strings.Contains(err.Error(), "variable "+tc.name+" references itself") {
			t.Errorf("%q: err = %v", tc.text, err)
		}
	}
	if _, err := Parse("A = $$(A)\nB = $(A)\n"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("Parse: err = %v", err)
	}
}

// A pattern rule is used at most once in a chain: `%: %.x` makes a from
// a.x, and a.x needs a rule of its own or a file.
func TestPatternRuleOncePerChain(t *testing.T) {
	mf, err := Parse("all: a\n%: %.x\n\ttouch $@\n")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(mf, fsim.New(), "/w", func([]string) error { return nil })
	if err := r.Build(""); err == nil || !strings.Contains(err.Error(), "no rule to make target 'a.x'") {
		t.Errorf("err = %v", err)
	}
	fs := fsim.New()
	fs.WriteFile("/w/a.x", []byte("x"), 0o644)
	exec := &recordingExec{fs: fs, cwd: "/w"}
	if err := NewRunner(mf, fs, "/w", exec.run).Build(""); err != nil || len(exec.cmds) != 1 {
		t.Errorf("with a.x present: err = %v, cmds = %v", err, exec.cmds)
	}
}

// recordingExec collects the argv sequence and simulates creating files
// from -o arguments.
type recordingExec struct {
	fs   *fsim.FS
	cwd  string
	cmds [][]string
}

func (e *recordingExec) run(argv []string) error {
	e.cmds = append(e.cmds, argv)
	for i, a := range argv {
		if a == "-o" && i+1 < len(argv) {
			p := argv[i+1]
			if !strings.HasPrefix(p, "/") {
				p = e.cwd + "/" + p
			}
			e.fs.WriteFile(p, []byte("built"), 0o755)
		}
	}
	return nil
}

func TestBuildOrderAndAutomaticVars(t *testing.T) {
	fs := fsim.New()
	fs.WriteFile("/w/main.c", []byte("int main(){}"), 0o644)
	fs.WriteFile("/w/phys.c", []byte("void f(){}"), 0o644)
	mf, err := Parse(demoMakefile)
	if err != nil {
		t.Fatal(err)
	}
	exec := &recordingExec{fs: fs, cwd: "/w"}
	r := NewRunner(mf, fs, "/w", exec.run)
	if err := r.Build(""); err != nil {
		t.Fatal(err)
	}
	if len(exec.cmds) != 3 {
		t.Fatalf("ran %d commands: %v", len(exec.cmds), exec.cmds)
	}
	// Pattern-rule compiles first (order of prereqs), then link.
	c0 := strings.Join(exec.cmds[0], " ")
	if c0 != "gcc -O2 -Wall -c main.c -o main.o" {
		t.Errorf("cmd0 = %q", c0)
	}
	link := strings.Join(exec.cmds[2], " ")
	if link != "gcc -O2 -Wall main.o phys.o -o app" {
		t.Errorf("link = %q", link)
	}
	// Each target builds once even when referenced again.
	if err := r.Build("app"); err != nil {
		t.Fatal(err)
	}
	if len(exec.cmds) != 3 {
		t.Error("rebuild re-ran recipes")
	}
}

func TestMissingRule(t *testing.T) {
	fs := fsim.New()
	mf, _ := Parse("app: missing.o\n\tgcc missing.o -o app\n")
	r := NewRunner(mf, fs, "/w", func([]string) error { return nil })
	err := r.Build("app")
	if err == nil || !strings.Contains(err.Error(), "no rule to make target 'missing.o'") {
		t.Errorf("err = %v", err)
	}
}

func TestSourcePrereqNeedsNoRule(t *testing.T) {
	fs := fsim.New()
	fs.WriteFile("/w/a.c", []byte("x"), 0o644)
	mf, _ := Parse("a.o: a.c\n\tgcc -c a.c -o a.o\n")
	exec := &recordingExec{fs: fs, cwd: "/w"}
	r := NewRunner(mf, fs, "/w", exec.run)
	if err := r.Build("a.o"); err != nil {
		t.Fatal(err)
	}
	if len(exec.cmds) != 1 {
		t.Errorf("cmds = %v", exec.cmds)
	}
}

func TestCircularDependency(t *testing.T) {
	mf, _ := Parse("a: b\n\ttouch a\nb: a\n\ttouch b\n")
	r := NewRunner(mf, fsim.New(), "/", func([]string) error { return nil })
	if err := r.Build("a"); err == nil || !strings.Contains(err.Error(), "circular") {
		t.Errorf("err = %v", err)
	}
}

func TestRecipeNeedNotProduceTarget(t *testing.T) {
	// Real make does not verify the recipe materialized its target (it
	// may install elsewhere, as `app: ... -o /app/solver` does).
	fs := fsim.New()
	mf, _ := Parse("out.bin:\n\techo doing nothing\n")
	r := NewRunner(mf, fs, "/w", func([]string) error { return nil })
	if err := r.Build("out.bin"); err != nil {
		t.Errorf("err = %v", err)
	}
	mf2, _ := Parse(".PHONY: go\ngo:\n\techo fine\n")
	r2 := NewRunner(mf2, fs, "/w", func([]string) error { return nil })
	if err := r2.Build("go"); err != nil {
		t.Error(err)
	}
}
