// Package fixture is a tiny module the comtainer-vet end-to-end test
// runs the multichecker against. It deliberately violates four of the
// enforced invariants (digestcmp, bodyclose, closeleak, timerstop) once
// each and contains one clean, suppressed site. It also spells each thing scripts/bans.sh bans
// (TestBansFire): a sha256 literal, an os.WriteFile, a time.Sleep, a
// digest.Digest conversion, an io.ReadAll of a bare reader, a
// bufio.NewScanner, an http.Server literal, a PATCH, a LoadLayout, a
// sha256.New, a go statement and a WaitGroup here, a
// function-style atomic and another go statement in racecase.go. It must not import
// comtainer/internal packages: those are invisible across the module
// boundary.
package fixture

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fixture/digest"
)

// IsDigest violates digestcmp: raw comparison against a sha256 literal.
func IsDigest(s string) bool {
	return s == "sha256:0000000000000000000000000000000000000000000000000000000000000000"
}

// WriteBlob is banned as os-write: a store file written in place.
func WriteBlob(root string, data []byte) error {
	return os.WriteFile(filepath.Join(root, "blobs", "x"), data, 0o644)
}

// Poll is banned as time.Sleep: a wait no context can cancel.
func Poll(ready func() bool) {
	for !ready() {
		time.Sleep(time.Millisecond)
	}
}

// Mint is banned as digest-conversion: a Digest no parser has seen.
func Mint(s string) digest.Digest {
	return digest.Digest(s)
}

// Slurp is banned as unbounded-read: a body read to wherever it ends.
func Slurp(r io.Reader) ([]byte, error) {
	return io.ReadAll(r)
}

// Lines is banned as scanner: text already in memory copied through a
// line buffer that refuses a long line.
func Lines(text string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}

// Server is banned as http-server: a server with none of the bounds
// and none of the drain of the one serve function.
func Server(h http.Handler) *http.Server {
	return &http.Server{Handler: h}
}

// SessionChunk is banned as client-patch: an upload session's chunk
// sent from outside the registry front-end, the one side that serves
// sessions.
func SessionChunk() string {
	return http.MethodPatch
}

// LoadLayout is banned as layout-io: an image store read by a second
// opener, one that knows no registry repository.
func LoadLayout(dir string) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, "index.json"))
}

// Checksum is banned as hash-site: bytes hashed again where no trust
// boundary is crossed.
func Checksum(data []byte) []byte {
	h := sha256.New()
	h.Write(data)
	return h.Sum(nil)
}

// Spawn seeds the go-statement ban: the goroutine is never joined,
// which only a test of its caller would notice.
func Spawn(fn func()) {
	go func() { fn() }()
}

// FetchStatus violates bodyclose: nothing ever closes resp.Body.
func FetchStatus(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// ReadHeader violates closeleak: f is never closed.
func ReadHeader(p string) ([]byte, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8)
	_, err = f.Read(buf)
	return buf, err
}

// WaitOne violates timerstop: the ticker is never stopped.
func WaitOne(d time.Duration) {
	t := time.NewTicker(d)
	<-t.C
}

// Begin seeds the waitgroup ban: the Add is stranded on the error
// path, which only a test that takes that path would notice.
func Begin(ready bool) error {
	var wg sync.WaitGroup
	wg.Add(1)
	if !ready {
		return errors.New("not ready")
	}
	wg.Done()
	wg.Wait()
	return nil
}

// Allowed shows a suppressed site the vet must stay quiet about.
func Allowed(s string) bool {
	//comtainer:allow digestcmp -- fixture: deliberate raw comparison
	return s == "sha256:ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
}
