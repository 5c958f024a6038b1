package main

import (
	"io"
	"net/http"
	"strings"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/remoteexec"
)

// The interposers wrap interfaces the program already accepts. Each
// passes every call, byte and error through unchanged and only records
// a span and counters on the tracer.

// tracedStore wraps the blob store a registry mounts.
type tracedStore struct {
	inner distrib.Store
	tr    *tracer
}

func (s *tracedStore) Has(d digest.Digest) bool {
	s.tr.count("distrib.store_has", 1)
	return s.inner.Has(d)
}

// Open's span runs until the reader is closed: a blob is streamed, so
// the store is busy for as long as the caller reads.
func (s *tracedStore) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	end := s.tr.start("distrib.store_open")
	rc, n, err := s.inner.Open(d)
	if err != nil {
		end()
		return rc, n, err
	}
	return &spanReadCloser{ReadCloser: rc, end: end}, n, nil
}

func (s *tracedStore) Digests() []digest.Digest { return s.inner.Digests() }

func (s *tracedStore) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	end := s.tr.start("distrib.store_ingest")
	d, n, err := s.inner.Ingest(r, want)
	end()
	s.tr.count("distrib.store_ingest_bytes", float64(n))
	return d, n, err
}

func (s *tracedStore) Delete(d digest.Digest) error { return s.inner.Delete(d) }

type spanReadCloser struct {
	io.ReadCloser
	end func()
}

func (r *spanReadCloser) Close() error {
	err := r.ReadCloser.Close()
	r.end()
	return err
}

// tracedCache wraps the action-cache tier under a Memoizer.
type tracedCache struct {
	inner actioncache.Cache
	tr    *tracer
}

func (c *tracedCache) Get(key digest.Digest) ([]byte, bool, error) {
	end := c.tr.start("actioncache.get")
	val, ok, err := c.inner.Get(key)
	end()
	return val, ok, err
}

func (c *tracedCache) Put(key digest.Digest, val []byte) error {
	end := c.tr.start("actioncache.put")
	err := c.inner.Put(key, val)
	end()
	c.tr.count("actioncache.put_bytes", float64(len(val)))
	return err
}

func (c *tracedCache) Stats() actioncache.Stats { return c.inner.Stats() }

// tracedTransport wraps the registry client's transport. Wire bytes
// are the request's declared length plus the response bytes read.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	end := t.tr.start("distrib.client_req")
	resp, err := t.inner.RoundTrip(req)
	end()
	if req.ContentLength > 0 {
		t.tr.count("distrib.client_wire_bytes", float64(req.ContentLength))
	}
	if err != nil || resp.StatusCode >= 500 {
		t.tr.count("distrib.client_err", 1)
	}
	if err != nil {
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, tr: t.tr, name: "distrib.client_wire_bytes"}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	tr   *tracer
	name string
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.tr.count(b.name, float64(n))
	}
	return n, err
}

// tracedHandler wraps a server's handler. classify names the span of a
// request. bytesName, when
// set, counts request and response body bytes. after, when set, sees
// each traced request's name and the head of its reply.
type tracedHandler struct {
	inner     http.Handler
	tr        *tracer
	classify  func(r *http.Request) string
	bytesName string
	after     func(tr *tracer, name string, replyHead []byte)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := h.classify(r)
	rw := &recordingWriter{ResponseWriter: w}
	if h.bytesName != "" && r.Body != nil {
		r.Body = &countingBody{ReadCloser: r.Body, tr: h.tr, name: h.bytesName}
	}
	end := h.tr.start(name)
	h.inner.ServeHTTP(rw, r)
	end()
	if h.bytesName != "" {
		h.tr.count(h.bytesName, float64(rw.written))
	}
	if h.after != nil {
		h.after(h.tr, name, rw.head)
	}
}

// recordingWriter counts the response bytes and keeps their first 16,
// enough for an after hook to tell one kind of reply from another.
type recordingWriter struct {
	http.ResponseWriter
	written int64
	head    []byte
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if room := 16 - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.written += int64(n)
	return n, err
}

func (w *recordingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// classifyShard names a request to a shard replica by what the
// registry does for it. Requests a leader forwards to its follower
// carry the replication header and are the fleet layer's, not the
// registry's.
func classifyShard(r *http.Request) string {
	if r.Header.Get(distrib.ReplicatedHeader) != "" {
		return "fleet.replicate"
	}
	return "registry." + registryRoute(r)
}

func registryRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.Contains(p, "/blobs/uploads"):
		return "upload"
	case strings.Contains(p, "/manifests/"):
		return "manifest"
	case strings.Contains(p, "/blobs/") && r.Method == http.MethodGet:
		return "blob_get"
	case strings.Contains(p, "/blobs/") && r.Method == http.MethodHead:
		return "blob_head"
	}
	return "other"
}

// classifyScheduler names a farm scheduler request by its route.
func classifyScheduler(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, remoteexec.APIPrefix+"/")
	switch {
	case p == "lease":
		return "remoteexec.lease"
	case p == "tasks":
		return "remoteexec.submit"
	case strings.HasSuffix(p, "/result"):
		return "remoteexec.result"
	case strings.HasPrefix(p, "tasks/"):
		return "remoteexec.status"
	}
	return "remoteexec.worker"
}

// countEmptyLease counts lease replies that carry no task: a long poll
// that timed out is work the worker and the scheduler did for nothing.
func countEmptyLease(tr *tracer, name string, replyHead []byte) {
	if name == "remoteexec.lease" && !strings.Contains(string(replyHead), `"task`) {
		tr.count("remoteexec.lease_empty", 1)
	}
}

// always classifies every request as name.
func always(name string) func(*http.Request) string {
	return func(*http.Request) string { return name }
}

// tracedClient returns an HTTP client whose requests the tracer sees.
func tracedClient(tr *tracer) *http.Client {
	return &http.Client{Transport: &tracedTransport{inner: http.DefaultTransport, tr: tr}}
}
