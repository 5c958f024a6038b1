package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runFSSequence drives a fixed op sequence against a FaultFS and
// returns the per-op outcome string.
func runFSSequence(t *testing.T, dir string, plan *Plan) []string {
	t.Helper()
	fsys := NewFS(OS(), plan)
	var out []string
	note := func(err error) {
		switch {
		case err == nil:
			out = append(out, "ok")
		case errors.Is(err, ErrPowerCut):
			out = append(out, "powercut")
		default:
			out = append(out, "err")
		}
	}
	for i := 0; i < 8; i++ {
		f, err := fsys.CreateTemp(dir, "t-*")
		note(err)
		if err != nil {
			continue
		}
		_, werr := f.Write([]byte("payload payload payload"))
		note(werr)
		f.Close()
		if werr == nil {
			note(fsys.Rename(f.Name(), filepath.Join(dir, "blob")))
		} else {
			note(fsys.Remove(f.Name()))
		}
	}
	return out
}

func TestPlanDeterminism(t *testing.T) {
	outcomes := func() ([]string, []Event) {
		plan := NewPlan(42).Rate(EIO, 0.2).Rate(ShortWrite, 0.2).At(17, PowerCut)
		seq := runFSSequence(t, t.TempDir(), plan)
		return seq, plan.Events()
	}
	seq1, ev1 := outcomes()
	seq2, ev2 := outcomes()
	if !reflect.DeepEqual(seq1, seq2) {
		t.Errorf("same seed, different outcomes:\n%v\n%v", seq1, seq2)
	}
	// Events differ only in Op paths (temp names vary); compare N/Kind.
	if len(ev1) != len(ev2) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i].N != ev2[i].N || ev1[i].Kind != ev2[i].Kind {
			t.Errorf("event %d: %v vs %v", i, ev1[i], ev2[i])
		}
	}
}

func TestPowerCutFreezesFS(t *testing.T) {
	dir := t.TempDir()
	plan := NewPlan(1).At(2, PowerCut) // op 1 = create, op 2 = write
	fsys := NewFS(OS(), plan)
	f, err := fsys.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("doomed")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write error = %v, want ErrPowerCut", err)
	}
	f.Close()
	if !fsys.Dead() {
		t.Fatal("FS not dead after power cut")
	}
	// Cleanup on the error path fails too: the torn temp file stays.
	if err := fsys.Remove(f.Name()); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("post-cut remove error = %v, want ErrPowerCut", err)
	}
	if _, err := os.Stat(f.Name()); err != nil {
		t.Fatalf("torn temp file should survive the crash: %v", err)
	}
}

func TestInjectedEIOUnwraps(t *testing.T) {
	plan := NewPlan(3).At(1, EIO)
	fsys := NewFS(OS(), plan)
	_, err := fsys.CreateTemp(t.TempDir(), "t-*")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("error = %v, want ErrInjected wrapping EIO", err)
	}
}

func TestTransportFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "10")
		_, _ = w.Write([]byte("0123456789"))
	}))
	defer srv.Close()

	plan := NewPlan(7).At(1, HTTP500).At(2, Drop).At(3, Truncate)
	client := &http.Client{Transport: NewTransport(nil, plan)}

	resp, err := client.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected 503: status=%v err=%v", resp, err)
	}
	resp.Body.Close()

	if _, err := client.Get(srv.URL); err == nil || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("injected drop error = %v, want ECONNRESET", err)
	}

	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read error = %v (got %d bytes), want ErrUnexpectedEOF", err, len(body))
	}
	if len(body) >= 10 || len(body) < 1 {
		t.Fatalf("truncated body delivered %d bytes, want a strict prefix", len(body))
	}

	// Past the plan's triggers: clean request.
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "0123456789" {
		t.Fatalf("clean request body = %q", body)
	}
}

// TestTransportCutsRequestBody: a Cut fails the request after a strict
// prefix of its body; the next request goes through whole.
func TestTransportCutsRequestBody(t *testing.T) {
	got := make(chan int, 2) // bytes each request delivered to the server
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		got <- int(n)
	}))
	client := &http.Client{Transport: NewTransport(nil, NewPlan(3).At(1, Cut))}
	body := strings.Repeat("x", 100)

	if _, err := client.Post(srv.URL, "text/plain", strings.NewReader(body)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut request error = %v, want ErrUnexpectedEOF", err)
	}
	resp, err := client.Post(srv.URL, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close() // waits for both handlers
	close(got)
	whole := 0
	for n := range got {
		if n == len(body) {
			whole++
		}
	}
	if whole != 1 {
		t.Fatalf("%d requests delivered the whole body, want 1 (the one past the plan)", whole)
	}
}

func TestTransportLatencyHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	plan := NewPlan(9).At(1, Latency).WithLatency(time.Minute)
	client := &http.Client{Transport: NewTransport(nil, plan)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("request survived a one-minute latency spike with a 20ms deadline")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the latency wait ignored the context", elapsed)
	}
}
