// Package fixture is a tiny module the comtainer-vet end-to-end test
// runs the multichecker against. It deliberately violates seven of the
// enforced invariants (digestcmp, gonaked, bodyclose, closeleak,
// timerstop, wgbalance here; guardedby in racecase.go) once each and
// contains one clean, suppressed site. It also spells each thing
// scripts/bans.sh bans (TestBansFire): a sha256 literal, an
// os.WriteFile, a time.Sleep, a digest.Digest conversion, an
// io.ReadAll of a bare reader and a bufio.NewScanner here, a
// function-style atomic in racecase.go. It must not import
// comtainer/internal packages: those are invisible across the module
// boundary.
package fixture

import (
	"bufio"
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

// Spawn violates gonaked: the goroutine is never joined.
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

// Begin violates wgbalance: the Add is stranded on the error path.
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
