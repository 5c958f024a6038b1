package main

import (
	"bufio"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// hpcgRebuilt is hpcg.dist+coMre's manifest digest on x86-64, the one
// internal/core's TestImageDigestsGolden pins.
const hpcgRebuilt = "sha256:e14668d6489ec361cc58cb760fee2716fadff20ce365c65b66b38699e2590bd0"

// TestHandoffThroughRegistry runs the paper's handoff as processes:
// build, rebuild, redirect and run of hpcg, once on a layout directory
// and once on a repository of a comtainer-registry serving -data. Both
// stores end with the same tags and digests, run prints the same, and
// the rebuilt image is the golden one.
func TestHandoffThroughRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the comtainer and comtainer-registry binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, ".", "../comtainer-registry").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	comtainer := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, "comtainer"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("comtainer %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	reg := exec.Command(filepath.Join(bin, "comtainer-registry"), "-data", t.TempDir(), "-addr", "127.0.0.1:0")
	stdout, err := reg.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		reg.Process.Kill()
		reg.Wait()
	})
	var addr string
	for lines, ok := bufio.NewReader(stdout), false; !ok; {
		line, err := lines.ReadString('\n')
		if addr, ok = strings.CutPrefix(strings.TrimSpace(line), "comtainer-registry listening on "); !ok && err != nil {
			t.Fatalf("registry exited before listening: %v", err)
		}
	}

	stores := []string{filepath.Join(t.TempDir(), "hpcg.oci"), "http://" + addr + "/user/hpcg"}
	var listed, ran [2]string
	for i, store := range stores {
		comtainer("build", "-app", "hpcg", "-o", store)
		comtainer("rebuild", "-layout", store)
		comtainer("redirect", "-layout", store)
		ran[i] = comtainer("run", "-layout", store, "-tag", "hpcg.dist.redirect", "-workload", "hpcg")
		listed[i] = comtainer("inspect", "-layout", store)
		if got := comtainer("inspect", "-layout", store, "-tag", "hpcg.dist+coMre"); !strings.Contains(got, "digest:       "+hpcgRebuilt+"\n") {
			t.Errorf("%s: hpcg.dist+coMre is not the golden %s:\n%s", store, hpcgRebuilt, got)
		}
	}
	if listed[0] != listed[1] {
		t.Errorf("the layout lists\n%s\nthe registry repository\n%s", listed[0], listed[1])
	}
	if n := strings.Count(listed[0], "\n"); n != 11 {
		t.Errorf("inspect lists %d lines, want a header and ten tags:\n%s", n, listed[0])
	}
	if ran[0] != ran[1] {
		t.Errorf("run on the layout printed\n%s\non the registry repository\n%s", ran[0], ran[1])
	}

	for _, args := range [][]string{{"run", "-layout", stores[0]}, {"publish"}} {
		err := exec.Command(filepath.Join(bin, "comtainer"), args...).Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("comtainer %s: %v, want exit status 2", strings.Join(args, " "), err)
		}
	}
}
