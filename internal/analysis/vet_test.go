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
// violates digestcmp, gonaked, guardedby, bodyclose, closeleak,
// timerstop, and wgbalance once each, seeds a two-package lock-order
// cycle (locka/lockb), and carries one suppressed site, so the binary
// must exit 1 with exactly those eight diagnostics.
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
	if lines != 8 {
		t.Errorf("want exactly 8 diagnostics, got %d:\n%s", lines, text)
	}
	for _, name := range []string{
		"[digestcmp]", "[gonaked]", "[lockorder]", "[guardedby]",
		"[bodyclose]", "[closeleak]", "[timerstop]", "[wgbalance]",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("missing %s diagnostic in output:\n%s", name, text)
		}
	}
	// The seeded resource-lifecycle leaks and the static data race must
	// surface verbatim.
	for _, msg := range []string{
		"resp.Body is not closed on every path to return",
		"f (*os.File) is not closed on every path to return",
		"t (*time.Ticker) is not stopped on every path to return",
		"wg.Add is not balanced by a Done provider on every path to return",
		"field fixture.Counter.n is guarded by fixture.Counter.mu on 2/3 accesses; unguarded read",
	} {
		if !strings.Contains(text, msg) {
			t.Errorf("missing seeded leak message %q in output:\n%s", msg, text)
		}
	}
	// The seeded locka/lockb cycle must be reported with the exact
	// canonical chain, anchored at the cross-package call in CrossAB.
	wantCycle := "potential deadlock: lock order cycle: " +
		"fixture/locka.MuA -> fixture/lockb.MuB -> fixture/locka.MuA"
	if !strings.Contains(text, wantCycle) {
		t.Errorf("missing the seeded lock-order cycle %q in output:\n%s", wantCycle, text)
	}
	// The suppressed Allowed site must not appear.
	if strings.Count(text, "[digestcmp]") != 1 {
		t.Errorf("suppression failed: want exactly one digestcmp diagnostic:\n%s", text)
	}
}

// TestBansFire runs scripts/bans.sh over the same fixture with every
// budget forced to zero: each spelling it bans is seeded there once, so
// it must fail and name the five bans that replaced an analyzer and the
// unbounded-read ratchet.
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
	for _, name := range []string{"time.Sleep", "digest-conversion", "sha256-literal", "atomic-function", "os-write", "unbounded-read"} {
		if !strings.Contains(string(out), "ban "+name+":") {
			t.Errorf("ban %s did not fire:\n%s", name, out)
		}
	}
}
