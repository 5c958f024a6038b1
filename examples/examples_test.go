// Package examples_test runs each example program end to end, the way a
// reader would: `go run` from the module, exit status 0. registry-flow
// also has its five lines checked, since it is the one example that
// pushes and pulls over HTTP, through a standalone registry.
package examples_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// registryFlow is what registry-flow prints, a line each; the port and
// the data directory change from run to run.
var registryFlow = []*regexp.Regexp{
	regexp.MustCompile(`^registry listening at http://127\.0\.0\.1:\d+, persisting under \S+$`),
	regexp.MustCompile(`^pushed hpcg\.dist\+coM as user/hpcg:v1 \(8 parallel layer uploads\)$`),
	regexp.MustCompile(`^registry restarted at http://127\.0\.0\.1:\d+ from persisted state$`),
	regexp.MustCompile(`^pulled user/hpcg:v1 on the x86-64 system \(parallel layer fetch\)$`),
	regexp.MustCompile(`^adapted image runs hpcg in \d+\.\d\d s on 16 nodes \(binary: \S+/\S+\)$`),
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	// go test keeps a passing result while the test's binary and the
	// files it opened are unchanged. The examples are built from the
	// module's sources, so the test opens every one of them.
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") && d.Name() != "go.mod":
			return nil
		}
		f, err := os.Open(path)
		if err == nil {
			f.Close()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			cmd := exec.Command("go", "run", "./"+e.Name())
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", e.Name(), err, stderr.String())
			}
			if e.Name() != "registry-flow" {
				return
			}
			lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
			if len(lines) != len(registryFlow) {
				t.Fatalf("registry-flow printed %d lines, want %d:\n%s", len(lines), len(registryFlow), out)
			}
			for i, re := range registryFlow {
				if !re.MatchString(lines[i]) {
					t.Errorf("registry-flow line %d is %q, want it to match %s", i+1, lines[i], re)
				}
			}
		})
	}
}
