// Package daemon is how a long-running binary serves HTTP: one
// function that bounds its clients and stops. Every decision a daemon
// would otherwise make on its own — which timeouts, how slow a body may
// be, how a stop drains — is made here, once.
package daemon

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"
)

// limits are the bounds Serve puts on its clients.
type limits struct {
	// header bounds reading a request's headers.
	header time.Duration
	// idle bounds a keep-alive connection waiting for its next request.
	idle time.Duration
	// window is how long a request body may go without delivering a
	// byte. A body is bounded by progress, never by total time, so an
	// honest 1 GiB upload at any steady rate passes.
	window time.Duration
	// drain bounds how long requests in flight may run on after a stop.
	// It is longer than the scheduler's longest long poll (10 s), so a
	// parked lease answers rather than being cut.
	drain time.Duration
}

// defaults is what Serve uses; the package test hands serve shorter ones.
var defaults = limits{
	header: 10 * time.Second,
	idle:   2 * time.Minute,
	window: time.Minute,
	drain:  25 * time.Second,
}

// Serve serves h on ln until ctx is done, then stops accepting, lets
// the requests in flight finish for up to the drain deadline, closes
// what is left and returns nil. It returns earlier only if ln fails.
//
// There is no overall read or write timeout: a large blob and a long
// poll both pass. What is bounded is headers (10 s), an idle keep-alive
// connection (2 min), and a request body that delivers nothing for a
// minute: its read fails with a timeout, and the handler answers or
// gives up as it would for a client that hung up.
func Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	return serve(ctx, ln, h, defaults)
}

func serve(ctx context.Context, ln net.Listener, h http.Handler, l limits) error {
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil && r.Body != http.NoBody {
				r.Body = &progressBody{ReadCloser: r.Body, rc: http.NewResponseController(w), window: l.window}
			}
			h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: l.header,
		IdleTimeout:       l.idle,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), l.drain)
	defer cancel()
	// A drain that runs out is no error to the caller: Close cuts what
	// is left, and those clients see a dropped connection, which they
	// retry like any other.
	_ = hs.Shutdown(drain)
	_ = hs.Close()
	<-served // http.ErrServerClosed
	return nil
}

// progressBody moves the connection's read deadline one window ahead
// before each read, so a body that keeps arriving is never cut and one
// that stalls for a window is. Once the body has ended it moves the
// deadline no more: net/http then clears it and reads the connection in
// the background, so a handler that parks after its body (a long poll)
// is cut by nothing this type set.
type progressBody struct {
	io.ReadCloser
	rc     *http.ResponseController
	window time.Duration
	ended  bool
}

func (b *progressBody) Read(p []byte) (int, error) {
	if !b.ended {
		if err := b.rc.SetReadDeadline(time.Now().Add(b.window)); err != nil {
			return 0, err
		}
	}
	n, err := b.ReadCloser.Read(p)
	b.ended = err != nil
	return n, err
}
