package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"comtainer/internal/digest"
)

// buildRegistry builds the command into a temporary directory.
func buildRegistry(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the comtainer-registry binary")
	}
	bin := filepath.Join(t.TempDir(), "comtainer-registry")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startRegistry runs the built binary over data on a kernel-chosen
// port and returns the process and the address it printed.
func startRegistry(t *testing.T, bin, data string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, "-data", data, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil { // the test failed before it stopped the process
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	out := bufio.NewReader(stdout)
	for {
		line, err := out.ReadString('\n')
		if addr, ok := strings.CutPrefix(strings.TrimSpace(line), "comtainer-registry listening on "); ok {
			return cmd, addr
		}
		if err != nil {
			t.Fatalf("registry exited before listening: %v", err)
		}
	}
}

// TestSIGTERMDrainsThenRestarts runs comtainer-registry as a process:
// a SIGTERM during a slow push lets that push finish (201), the process
// exits 0 and stops accepting, and a restart over the same -data
// serves the blob.
func TestSIGTERMDrainsThenRestarts(t *testing.T) {
	bin := buildRegistry(t)
	data := t.TempDir()
	proc, addr := startRegistry(t, bin, data)

	const chunks, chunk = 8, 64 << 10
	blob := bytes.Repeat([]byte("comtainer"), chunks*chunk/9+1)[:chunks*chunk]
	d := digest.FromBytes(blob)
	pr, pw := io.Pipe()
	sent := make(chan struct{}, chunks)
	go func() {
		for i := 0; i < chunks; i++ {
			time.Sleep(100 * time.Millisecond)
			if _, err := pw.Write(blob[i*chunk : (i+1)*chunk]); err != nil {
				return
			}
			sent <- struct{}{}
		}
		pw.Close()
	}()
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v2/drain/blobs/uploads/?digest="+string(d), "application/octet-stream", pr)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	for range 2 { // stop with the push two chunks in
		select {
		case <-sent:
		case got := <-status:
			t.Fatalf("push ended before the stop: %d", got)
		}
	}
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if got := <-status; got != http.StatusCreated {
		t.Fatalf("push in flight at SIGTERM = %d, want 201", got)
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("registry after SIGTERM: %v, want exit 0", err)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("a new dial after exit was accepted")
	}

	proc, addr = startRegistry(t, bin, data)
	resp, err := http.Get("http://" + addr + "/v2/drain/blobs/" + string(d))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, blob) {
		t.Fatalf("blob after restart: %d, %d bytes, %v", resp.StatusCode, len(got), err)
	}
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("idle registry after SIGTERM: %v, want exit 0", err)
	}
}

// TestProxyListenFailureExits: a proxy whose address is taken exits 1
// at once, its heartbeat loop stopped rather than keeping it alive.
func TestProxyListenFailureExits(t *testing.T) {
	bin := buildRegistry(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cmd := exec.Command(bin, "-proxy", "-addr", taken.Addr().String(), "-shard", "http://127.0.0.1:1", "-heartbeat", "50ms")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("proxy on a taken address: %v, want exit status 1", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-exited
		t.Fatal("proxy on a taken address is still running")
	}
}
