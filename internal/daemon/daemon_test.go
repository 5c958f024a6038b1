package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
)

// testLimits shrink the production bounds so a stall is seen in a
// fraction of a second.
var testLimits = limits{header: 2 * time.Second, idle: 5 * time.Second, window: 400 * time.Millisecond, drain: 5 * time.Second}

// slack is what a loaded test machine may add to a deadline.
const slack = 2 * time.Second

// daemonUnderTest is one serve call on a loopback port.
type daemonUnderTest struct {
	addr   string
	stop   context.CancelFunc
	served chan error
}

func (d *daemonUnderTest) url(path string) string { return "http://" + d.addr + path }

// start serves h under testLimits until the test ends or d.stop is
// called, and takes the census once serve has returned.
func start(t *testing.T, h http.Handler) *daemonUnderTest {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &daemonUnderTest{addr: ln.Addr().String(), stop: stop, served: make(chan error, 1)}
	go func() { d.served <- serve(ctx, ln, h, testLimits) }()
	t.Cleanup(func() {
		stop()
		<-d.served
		requireNoDaemonGoroutines(t)
	})
	return d
}

// requireNoDaemonGoroutines is the census a test takes once serve has
// returned: within a bounded wait, no goroutine may be left running,
// or started by, this package's code.
func requireNoDaemonGoroutines(t *testing.T) {
	t.Helper()
	if left := faultinject.Survivors("comtainer/internal/daemon.", time.Second); len(left) > 0 {
		t.Errorf("%d goroutines outlived serve:\n\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// steadyBody writes n chunks of size bytes, gap apart, into a pipe; a
// chunk is sent on sent as it has been written.
func steadyBody(n, size int, gap time.Duration, sent chan<- int) (io.Reader, []byte) {
	blob := bytes.Repeat([]byte("0123456789abcdef"), n*size/16)
	pr, pw := io.Pipe()
	go func() {
		for i := 0; i < n; i++ {
			if i > 0 {
				time.Sleep(gap)
			}
			if _, err := pw.Write(blob[i*size : (i+1)*size]); err != nil {
				return
			}
			if sent != nil {
				sent <- i
			}
		}
		pw.Close()
	}()
	return pr, blob
}

// push sends body as one monolithic blob upload under digest want and
// returns the status, or 0 if the request failed.
func push(d *daemonUnderTest, body io.Reader, want digest.Digest) int {
	resp, err := http.Post(d.url("/v2/slow/blobs/uploads/?digest="+string(want)), "application/octet-stream", body)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A PATCH whose headers arrive and whose body then stalls is cut one
// window after its last byte. The session keeps what arrived, so a
// resume from its offset completes the upload.
func TestStalledBodyIsCutAndResumes(t *testing.T) {
	d := start(t, registry.NewServer().Handler())
	resp, err := http.Post(d.url("/v2/stall/blobs/uploads/"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	loc := resp.Header.Get("Location")
	if resp.StatusCode != http.StatusAccepted || loc == "" {
		t.Fatalf("POST = %d, Location %q", resp.StatusCode, loc)
	}
	blob := bytes.Repeat([]byte("x"), 100)

	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "PATCH %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 100\r\nContent-Range: 0-99\r\n\r\n", loc, d.addr)
	conn.Write(blob[:10])
	began := time.Now()
	conn.SetReadDeadline(began.Add(testLimits.window + slack)) // fail, not hang, if nothing cuts it
	cut, err := http.ReadResponse(bufio.NewReader(conn), nil)
	elapsed := time.Since(began)
	if err == nil {
		cut.Body.Close()
	}
	if elapsed < testLimits.window/2 || elapsed > testLimits.window+slack {
		t.Fatalf("stalled PATCH ended after %v (err %v), want about one %v window", elapsed, err, testLimits.window)
	}

	resp, err = http.Get(d.url(loc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Range"); got != "0-9" {
		t.Fatalf("session Range after the cut = %q, want 0-9 (the bytes that arrived)", got)
	}
	req, _ := http.NewRequest(http.MethodPatch, d.url(loc), bytes.NewReader(blob[10:]))
	req.Header.Set("Content-Range", "10-99")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume PATCH = %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, d.url(loc+"?digest="+string(digest.FromBytes(blob))), nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("finalizing PUT = %d", resp.StatusCode)
	}
}

// A body sent steadily, with gaps shorter than the window, is never
// cut, however long it takes in all.
func TestSteadyBodyPasses(t *testing.T) {
	d := start(t, registry.NewServer().Handler())
	body, blob := steadyBody(10, 1024, testLimits.window/4, nil)
	began := time.Now()
	if got := push(d, body, digest.FromBytes(blob)); got != http.StatusCreated {
		t.Fatalf("steady push = %d, want 201", got)
	}
	if took := time.Since(began); took < 2*testLimits.window {
		t.Fatalf("push took %v: too short to show the window bounds progress, not total time", took)
	}
}

// Cancelling ctx mid-push drains: the push still gets its 201, Serve
// returns nil, and a new dial is refused.
func TestStopDrainsInFlight(t *testing.T) {
	d := start(t, registry.NewServer().Handler())
	sent := make(chan int, 10)
	body, blob := steadyBody(10, 1024, testLimits.window/4, sent)
	status := make(chan int, 1)
	go func() { status <- push(d, body, digest.FromBytes(blob)) }()
	for range 2 { // stop with the push two chunks in
		select {
		case <-sent:
		case got := <-status:
			t.Fatalf("push ended before the stop: %d", got)
		}
	}
	d.stop()
	if got := <-status; got != http.StatusCreated {
		t.Fatalf("push in flight at stop = %d, want 201", got)
	}
	if err := <-d.served; err != nil {
		t.Fatalf("serve after stop = %v, want nil", err)
	}
	d.served <- nil // for the cleanup
	if conn, err := net.Dial("tcp", d.addr); err == nil {
		conn.Close()
		t.Fatal("a new dial after stop was accepted")
	}
}

// A scheduler lease poll parked through Serve runs its full wait: a
// long poll is not a stalled body.
func TestLeasePollRunsItsWait(t *testing.T) {
	d := start(t, remoteexec.NewScheduler().Handler())
	resp, err := http.Post(d.url(remoteexec.APIPrefix+"/workers"), "application/json", strings.NewReader(`{"name":"w","slots":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var reg remoteexec.RegisterResponse
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil || reg.WorkerID == "" {
		t.Fatalf("register: %v (%+v)", err, reg)
	}
	wait := 3 * testLimits.window
	began := time.Now()
	resp, err = http.Post(d.url(fmt.Sprintf("%s/lease?worker=%s&wait=%d", remoteexec.APIPrefix, reg.WorkerID, wait.Milliseconds())), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if took := time.Since(began); resp.StatusCode != http.StatusOK || took < wait {
		t.Fatalf("lease poll = %d after %v, want 200 after its %v wait", resp.StatusCode, took, wait)
	}
}

// A handler that reads its body to the end, reads once more (as a
// decoder checking for trailing bytes does) and then parks is neither
// cut nor cancelled: the deadline stops moving when the body ends.
func TestParkAfterBodyIsNotCut(t *testing.T) {
	park := 3 * testLimits.window
	d := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		r.Body.Read(make([]byte, 1))
		select {
		case <-time.After(park):
			w.WriteHeader(http.StatusNoContent)
		case <-r.Context().Done():
			http.Error(w, "cancelled", http.StatusServiceUnavailable)
		}
	}))
	resp, err := http.Post(d.url("/"), "text/plain", strings.NewReader("a small body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("parked handler answered %d, want 204 after %v", resp.StatusCode, park)
	}
}

// A listener that fails ends serve with its error at once: the caller's
// context need not end first, so a daemon whose socket dies exits
// instead of idling until it is signalled.
func TestFailedListenerEndsServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	served := make(chan error, 1)
	go func() { served <- serve(context.Background(), ln, http.NotFoundHandler(), testLimits) }()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("serve over a closed listener returned nil, want its accept error")
		}
		requireNoDaemonGoroutines(t)
	case <-time.After(slack):
		t.Fatalf("serve over a closed listener still running after %v", slack)
	}
}
