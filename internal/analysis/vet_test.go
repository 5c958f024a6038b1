package analysis_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetEndToEnd builds and runs the comtainer-vet multichecker, as a
// user would, over the fixture module in testdata/fixture. The fixture
// violates digestcmp, bodyclose, closeleak and timerstop once each and
// carries one suppressed site, so the binary must exit 1 with exactly
// those four diagnostics. Its unjoined goroutine and stranded
// WaitGroup.Add are the bans' seeds (TestBansFire), not findings.
func TestVetEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	fixture, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "comtainer/cmd/comtainer-vet", "./...")
	cmd.Dir = fixture
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	err = cmd.Run()
	if err == nil {
		t.Fatalf("vet exited 0 over a fixture with known violations\nstdout:\n%s", out.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("vet did not exit 1: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), stderr.String())
	}

	text := out.String()
	lines := 0
	for _, l := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.TrimSpace(l) != "" {
			lines++
		}
	}
	if lines != 4 {
		t.Errorf("want exactly 4 diagnostics, got %d:\n%s", lines, text)
	}
	for _, name := range []string{
		"[digestcmp]", "[bodyclose]", "[closeleak]", "[timerstop]",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("missing %s diagnostic in output:\n%s", name, text)
		}
	}
	// The seeded resource-lifecycle leaks must surface verbatim.
	for _, msg := range []string{
		"resp.Body is not closed on every path to return",
		"f (*os.File) is not closed on every path to return",
		"t (*time.Ticker) is not stopped on every path to return",
	} {
		if !strings.Contains(text, msg) {
			t.Errorf("missing seeded leak message %q in output:\n%s", msg, text)
		}
	}
	// The suppressed Allowed site must not appear.
	if strings.Count(text, "[digestcmp]") != 1 {
		t.Errorf("suppression failed: want exactly one digestcmp diagnostic:\n%s", text)
	}
}

// TestVetOnlyRefusesUnknownName: -only with a name that is no analyzer
// is a usage error (exit 2) naming it, not a run of the names it knows.
func TestVetOnlyRefusesUnknownName(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	// Built, not run with `go run`, which exits 1 whatever the status.
	bin := filepath.Join(t.TempDir(), "comtainer-vet")
	if out, err := exec.Command("go", "build", "-o", bin, "comtainer/cmd/comtainer-vet").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-only", "lockio,safejoin", "./...")
	cmd.Dir = filepath.Join("testdata", "fixture")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("vet -only lockio,safejoin: %v, want exit 2\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"lockio"`) {
		t.Errorf("error does not name the unknown analyzer:\n%s", stderr.String())
	}
}

// TestBansFire runs scripts/bans.sh over the same fixture with every
// budget forced to zero: each spelling it bans is seeded there once, so
// it must fail and name the seven bans that replaced an analyzer, the
// unbounded-read ratchet, the scanner ban, the http-server ban, the
// client-patch ban and the layout-io and hash-site ratchets.
func TestBansFire(t *testing.T) {
	script, err := filepath.Abs(filepath.Join("..", "..", "scripts", "bans.sh"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("sh", script, ".")
	cmd.Dir = filepath.Join("testdata", "fixture")
	cmd.Env = append(os.Environ(), "BAN_BUDGET=0")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bans.sh exited 0 over a fixture that spells every ban:\n%s", out)
	}
	for _, name := range []string{"time.Sleep", "digest-conversion", "sha256-literal", "atomic-function", "os-write", "unbounded-read", "scanner", "http-server", "client-patch", "layout-io", "hash-site", "go-statement", "waitgroup"} {
		if !strings.Contains(string(out), "ban "+name+":") {
			t.Errorf("ban %s did not fire:\n%s", name, out)
		}
	}
}
