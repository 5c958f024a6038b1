// Package a exercises the closeleak analyzer.
package a

import (
	"compress/gzip"
	"io"
	"net"
	"net/http"
	"os"
)

func leakOnSecondAcquire(p, q string) error {
	src, err := os.Open(p) // want `src \(\*os.File\) is not closed on every path to return`
	if err != nil {
		return err
	}
	dst, err := os.Create(q)
	if err != nil {
		return err // src leaks on this path; dst is nil here
	}
	defer src.Close()
	defer dst.Close()
	_, err = io.Copy(dst, src)
	return err
}

func deferClean(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(io.Discard, f)
	return err
}

func gzipWriterLeak(w io.Writer, b []byte) error {
	zw := gzip.NewWriter(w) // want `zw \(\*compress/gzip.Writer\) is not closed on every path to return`
	if _, err := zw.Write(b); err != nil {
		return err
	}
	return zw.Close()
}

func gzipWriterClean(w io.Writer, b []byte) error {
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(b); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

func returnedClean(p string) (*os.File, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	return f, nil // escapes: the caller owns it now
}

func storedClean(p string, sink *struct{ F *os.File }) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	sink.F = f // escapes into the caller's struct
	return nil
}

func closeBoth(a, b *os.File) {
	a.Close()
	b.Close()
}

func helperClean(p, q string) error {
	src, err := os.Open(p)
	if err != nil {
		return err
	}
	dst, err := os.Create(q)
	if err != nil {
		src.Close()
		return err
	}
	_, err = io.Copy(dst, src)
	closeBoth(src, dst) // same-package classification: closes both params
	return err
}

func serveConsumes(ln net.Listener, h http.Handler) error {
	return http.Serve(ln, h)
}

func acceptLeak(ln net.Listener) error {
	conn, err := ln.Accept() // want `conn \(net.Conn\) is not closed on every path to return`
	if err != nil {
		return err
	}
	_, err = conn.Write([]byte("hi"))
	return err
}

// server is a registry.Server-shaped owner of two stores.
type server struct {
	blobs io.Reader
	refs  io.Writer
}

// newServerWith stores what it is handed in the server it returns.
func newServerWith(blobs io.Reader, refs io.Writer) *server {
	return &server{blobs: blobs, refs: refs}
}

func newServerAt(p, q string) (*server, error) {
	blobs, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	refs, err := os.Create(q)
	if err != nil {
		blobs.Close()
		return nil, err
	}
	return newServerWith(blobs, refs), nil // both handed off: the callee keeps them
}

// openServer keeps f on the path that returns no error; on the other,
// f is its caller's still.
func openServer(f *os.File) (*server, error) {
	if _, err := f.Stat(); err != nil {
		return nil, err
	}
	return &server{blobs: f}, nil
}

func openServerAt(p string) (*server, error) {
	f, err := os.Open(p) // want `f \(\*os.File\) is not closed on every path to return`
	if err != nil {
		return nil, err
	}
	return openServer(f)
}

// keepSome stores f only when keep is set.
func keepSome(f io.Reader, keep bool) *server {
	if keep {
		return &server{blobs: f}
	}
	return nil
}

func handOffSometimes(p string) *server {
	f, err := os.Open(p) // want `f \(\*os.File\) is not closed on every path to return`
	if err != nil {
		return nil
	}
	return keepSome(f, true)
}

// openServerOrClose keeps f, or closes it on the path that fails.
func openServerOrClose(f *os.File) (*server, error) {
	if _, err := f.Stat(); err != nil {
		f.Close()
		return nil, err
	}
	return &server{blobs: f}, nil
}

func openServerClosing(p string) (*server, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	return openServerOrClose(f) // handed off on every path
}
