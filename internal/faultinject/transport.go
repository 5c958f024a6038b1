package faultinject

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"time"
)

// Transport is an http.RoundTripper that injects network faults from a
// plan in front of a base transport: fabricated 503s (HTTP500),
// truncated response bodies (Truncate), request bodies cut mid-upload
// (Cut), delayed requests (Latency, honoring the request context), and
// connection resets (Drop). Wrap a distrib.Client's HTTP transport with
// it to rehearse registry failure modes deterministically.
type Transport struct {
	base http.RoundTripper
	plan *Plan
}

// NewTransport wraps base (http.DefaultTransport when nil) with plan.
func NewTransport(base http.RoundTripper, plan *Plan) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, plan: plan}
}

// Plan returns the plan driving this transport.
func (t *Transport) Plan() *Plan { return t.plan }

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := "http " + req.Method + " " + req.URL.Path
	kind, ok := t.plan.next(op, HTTP500, Drop, Latency, Truncate, Cut)
	if !ok {
		return t.base.RoundTrip(req)
	}
	switch kind {
	case Cut:
		if req.Body == nil || req.Body == http.NoBody {
			return t.base.RoundTrip(req)
		}
		span := cmp.Or(max(req.ContentLength-1, 0), 64<<10) // 64 KiB: the length is not known
		req = req.Clone(req.Context())
		req.Body = &truncatedBody{rc: req.Body, remain: int64(t.plan.intn(int(span))) + 1}
		return t.base.RoundTrip(req)
	case HTTP500:
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader("faultinject: injected 503")),
			ContentLength: -1,
			Request:       req,
		}, nil
	case Drop:
		return nil, fmt.Errorf("faultinject: connection dropped: %w", syscall.ECONNRESET)
	case Latency:
		// Context-aware wait: a cancelled request aborts the spike
		// within one timer tick instead of sleeping through it.
		timer := time.NewTimer(t.plan.delay())
		defer timer.Stop()
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-timer.C:
		}
		return t.base.RoundTrip(req)
	default: // Truncate
		resp, err := t.base.RoundTrip(req)
		if err != nil || resp.ContentLength <= 1 {
			return resp, err
		}
		// Deliver a seeded strict prefix, then fail the read the way a
		// dying connection would.
		keep := int64(t.plan.intn(int(resp.ContentLength-1))) + 1
		resp.Body = &truncatedBody{rc: resp.Body, remain: keep}
		return resp, nil
	}
}

// truncatedBody serves remain bytes of a body, then an unexpected EOF.
type truncatedBody struct {
	rc     io.ReadCloser
	remain int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= int64(n)
	if err == io.EOF && b.remain > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }
