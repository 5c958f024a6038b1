package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"comtainer/internal/cachekit"
	"comtainer/internal/core/ctxutil"
	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

// Client is a concurrent distribution client: blob transfers fan out
// over a bounded worker pool, in-flight fetches of the same digest are
// deduplicated (singleflight), blobs the other side already holds are
// skipped, and transient failures (5xx, network errors, short reads)
// retry with exponential backoff.
//
// There is one place a request is built and sent (Do) and one loop
// that retries (Retry). Every operation that retries — a blob push or
// fetch, a manifest, a farm result report — spends one budget of
// Retries+1 attempts on it; nothing nests a second loop inside. What an
// interrupted transfer already moved survives between attempts: a
// download resumes with an HTTP Range request from the bytes received,
// a chunked upload from the offset its session reports.
//
// Every method takes a context: cancelling it aborts in-flight
// requests and any retry/backoff wait within one timer tick — there is
// no uncancellable sleep anywhere on the retry path.
type Client struct {
	// Base is the registry root, e.g. "http://127.0.0.1:5000".
	Base string
	// HTTP is the transport; defaults to http.DefaultClient.
	HTTP *http.Client
	// Workers bounds parallel blob transfers per image (default 4).
	Workers int
	// ChunkSize is the PATCH chunk size for uploads (default 1 MiB). A
	// blob that fits one chunk is pushed in a single request instead.
	ChunkSize int64
	// Retries is how many times one operation retries a transient
	// failure, whichever of its requests failed (default 3).
	Retries int
	// RetryBackoff is the initial backoff, doubled per retry (default 25ms).
	RetryBackoff time.Duration

	flights cachekit.Flight[digest.Digest, struct{}]
}

// NewClient returns a client for the registry at base with default
// concurrency and retry settings.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

func (c *Client) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

func (c *Client) chunkSize() int64 {
	if c.ChunkSize > 0 {
		return c.ChunkSize
	}
	return 1 << 20
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 3
}

func (c *Client) backoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 25 * time.Millisecond
}

func (c *Client) url(parts ...string) string {
	return c.Base + "/v2/" + strings.Join(parts, "/")
}

// httpStatusError is a response whose status the request's sender did
// not list as acceptable — the one error type an HTTP status travels
// in; its code drives the transient-vs-permanent retry decision.
type httpStatusError struct {
	Code   int
	Status string
	URL    string
	Body   string
}

func (e *httpStatusError) Error() string {
	msg := fmt.Sprintf("distrib: %s: status %s", e.URL, e.Status)
	if e.Body != "" {
		msg += ": " + strings.TrimSpace(e.Body)
	}
	return msg
}

// StatusCode returns the HTTP status err reports, or 0 when err is not
// a response at all (nil, a transport failure, a decode error). A 404
// is the definitive "does not exist" callers tell from "broken".
func StatusCode(err error) int {
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.Code
	}
	return 0
}

// Do is the one place a request is built and sent. It returns the
// response, body open for the caller to close, only when its status is
// one of accept. Any other response is drained, closed and returned as
// an error StatusCode reads; a transport failure is an error without a
// status. A body that says how long it is (oci.Sized) is sent with that
// Content-Length.
func (c *Client) Do(ctx context.Context, method, url string, header http.Header, body io.Reader, accept ...int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if size, _ := oci.Sized(body); size >= 0 {
		req.ContentLength = size
		if size == 0 {
			req.Body = http.NoBody
		}
	}
	for k, v := range header {
		req.Header[k] = v
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	if slices.Contains(accept, resp.StatusCode) {
		return resp, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return nil, &httpStatusError{Code: resp.StatusCode, Status: resp.Status, URL: method + " " + url, Body: string(msg)}
}

// transient reports whether err is worth retrying.
//
// Permanent: context cancellation — a caller that cancelled must never
// be held for another attempt — a blob declared larger than the client
// will hold, and every status but the server-side ones (5xx, 429, 408,
// and 416: the resume-offset handshake restarts from scratch).
//
// Retryable: everything else — truncated bodies, connection resets and
// refusals, and failures of no known kind (a digest mismatch from a
// corrupted body, say): the retry budget bounds the damage.
func transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, oci.ErrBlobTooLarge) {
		return false
	}
	if code := StatusCode(err); code != 0 {
		return code >= 500 ||
			code == http.StatusTooManyRequests ||
			code == http.StatusRequestTimeout ||
			code == http.StatusRequestedRangeNotSatisfiable
	}
	return true
}

// Retry is the one retry loop: it runs fn until it succeeds, fails
// permanently (see transient) or has failed Retries+1 times, waiting
// RetryBackoff doubled per retry in between. Cancelling ctx aborts both
// the in-flight attempt and any backoff wait. State fn keeps outside
// itself — bytes received, an upload session — carries a transfer from
// one attempt to the next.
func (c *Client) Retry(ctx context.Context, fn func(context.Context) error) error {
	backoff := c.backoff()
	for n := 0; ; n++ {
		err := fn(ctx)
		if err == nil || !transient(err) || n >= c.retries() {
			return err
		}
		// A cancelled parent (fn may have surfaced it as a wrapped
		// transport error) stops the retrying at once, with or without a
		// sleep in progress; the last failure is kept for the log line.
		if serr := ctxutil.Sleep(ctx, backoff); serr != nil {
			return fmt.Errorf("%w (last attempt: %v)", serr, err)
		}
		backoff *= 2
	}
}

// runPool runs tasks with at most c.Workers in flight and returns the
// first error (all tasks are waited for either way).
func (c *Client) runPool(tasks []func() error) error {
	sem := make(chan struct{}, c.workers())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for _, task := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(task func() error) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := task(); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(task)
	}
	wg.Wait()
	return first
}

// Ping checks the registry is alive.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.Do(ctx, http.MethodGet, c.Base+"/v2/", nil, nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("distrib: ping: %w", err)
	}
	return resp.Body.Close()
}

// ListTags returns the sorted tags of repository name.
func (c *Client) ListTags(ctx context.Context, name string) ([]string, error) {
	resp, err := c.Do(ctx, http.MethodGet, c.url(name, "tags", "list"), nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Tags []string `json:"tags"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("distrib: decoding tags list: %w", err)
	}
	return out.Tags, nil
}

// HasBlob asks the registry (HEAD) whether it already holds blob d —
// the cross-image dedup probe.
func (c *Client) HasBlob(ctx context.Context, name string, d digest.Digest) (bool, error) {
	resp, err := c.Do(ctx, http.MethodHead, c.url(name, "blobs", string(d)), nil, nil, http.StatusOK, http.StatusNotFound)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// --- push side ---

// startUpload opens an upload session in repository name and returns
// the session's absolute URL.
func (c *Client) startUpload(ctx context.Context, name string) (string, error) {
	resp, err := c.Do(ctx, http.MethodPost, c.url(name, "blobs", "uploads")+"/", nil, nil, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	resp.Body.Close()
	loc := resp.Header.Get("Location")
	if loc == "" {
		return "", fmt.Errorf("distrib: upload session has no Location")
	}
	if strings.HasPrefix(loc, "/") {
		loc = c.Base + loc
	}
	return loc, nil
}

// uploadOffset queries a session for its committed offset.
func (c *Client) uploadOffset(ctx context.Context, loc string) (int64, error) {
	resp, err := c.Do(ctx, http.MethodGet, loc, nil, nil, http.StatusNoContent, http.StatusOK)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return parseUploadRange(resp.Header.Get("Range"))
}

// parseUploadRange turns a session "Range: 0-<end>" header into the
// next write offset. "0-0" means nothing received (the docker
// convention for an empty session).
func parseUploadRange(rng string) (int64, error) {
	start, end, ok := strings.Cut(rng, "-")
	if !ok || start != "0" {
		return 0, fmt.Errorf("distrib: malformed upload range %q", rng)
	}
	n, err := strconv.ParseInt(end, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("distrib: malformed upload range %q", rng)
	}
	if n == 0 {
		return 0, nil
	}
	return n + 1, nil
}

// sendChunks PATCHes blob d to session loc from offset on, reading the
// blob's size bytes from r, and PUTs the digest to close the session.
// Each chunk's body is the next stretch of r itself.
func (c *Client) sendChunks(ctx context.Context, loc string, r io.Reader, size int64, d digest.Digest, offset int64) error {
	if _, err := io.CopyN(io.Discard, r, offset); err != nil {
		return fmt.Errorf("distrib: seeking to resume offset %d: %w", offset, err)
	}
	for offset < size {
		n := min(c.chunkSize(), size-offset)
		header := http.Header{
			"Content-Type":  {"application/octet-stream"},
			"Content-Range": {fmt.Sprintf("%d-%d", offset, offset+n-1)},
		}
		resp, err := c.Do(ctx, http.MethodPatch, loc, header, oci.NewSizedReader(r, n), http.StatusAccepted)
		if err != nil {
			return fmt.Errorf("distrib: uploading chunk of %s: %w", d.Short(), err)
		}
		resp.Body.Close()
		offset += n
	}
	sep := "?"
	if strings.Contains(loc, "?") {
		sep = "&"
	}
	resp, err := c.Do(ctx, http.MethodPut, loc+sep+"digest="+string(d), nil, nil, http.StatusCreated)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// PushBlob uploads blob d from src into repository name. Blobs the
// registry already holds are skipped. A blob that fits one chunk goes
// up in one request; a larger one uses the chunked upload protocol,
// where a transfer interrupted mid-PATCH resumes from the offset the
// server reports rather than restarting.
func (c *Client) PushBlob(ctx context.Context, name string, src BlobSource, d digest.Digest) error {
	return c.push(ctx, name, d, func() (io.ReadCloser, int64, error) { return src.Open(d) })
}

// PushBytes is PushBlob for content already in memory: it uploads data
// as a blob of repository name and returns its digest.
func (c *Client) PushBytes(ctx context.Context, name string, data []byte) (digest.Digest, error) {
	d := digest.FromBytes(data)
	return d, c.push(ctx, name, d, func() (io.ReadCloser, int64, error) {
		return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
	})
}

// push uploads blob d, whose content open yields afresh per attempt.
func (c *Client) push(ctx context.Context, name string, d digest.Digest, open func() (io.ReadCloser, int64, error)) error {
	if ok, err := c.HasBlob(ctx, name, d); err == nil && ok {
		return nil
	}
	var loc string // the chunked upload's session, kept across attempts
	return c.Retry(ctx, func(ctx context.Context) error {
		r, size, err := open()
		if err != nil {
			return err
		}
		defer r.Close()
		if size <= c.chunkSize() {
			// The protocol's single-request form: no session is opened, so
			// a failure leaves nothing to resume.
			header := http.Header{"Content-Type": {"application/octet-stream"}}
			resp, err := c.Do(ctx, http.MethodPost, c.url(name, "blobs", "uploads")+"/?digest="+string(d), header, oci.NewSizedReader(r, size), http.StatusCreated)
			if err != nil {
				return err
			}
			return resp.Body.Close()
		}
		// Resume from the offset the session committed; only a session
		// the server no longer knows is replaced by a fresh one.
		var offset int64
		if loc != "" {
			if offset, err = c.uploadOffset(ctx, loc); StatusCode(err) == http.StatusNotFound {
				loc = ""
			} else if err != nil {
				return err
			}
		}
		if loc == "" {
			if loc, err = c.startUpload(ctx, name); err != nil {
				return err
			}
		}
		return c.sendChunks(ctx, loc, r, size, d, offset)
	})
}

// PushImage uploads the image (or manifest list) named by desc from
// src as name:tag: every referenced blob first — in parallel — and
// every member image by digest, then the manifest, so the registry
// never sees a manifest with dangling references.
func (c *Client) PushImage(ctx context.Context, src BlobSource, desc oci.Descriptor, name, tag string) error {
	get := func(d digest.Digest) ([]byte, error) { return ReadBlob(src, d) }
	return oci.Walk(desc, get, func(doc oci.Descriptor, raw []byte, blobs, children []oci.Descriptor) error {
		tasks := make([]func() error, len(blobs))
		for i, bd := range blobs {
			// Fail fast if the source is missing a referenced blob: the
			// registry would reject the manifest anyway.
			if !src.Has(bd.Digest) {
				return fmt.Errorf("distrib: source is missing referenced blob %s", bd.Digest)
			}
			tasks[i] = func() error { return c.PushBlob(ctx, name, src, bd.Digest) }
		}
		if err := c.runPool(tasks); err != nil {
			return err
		}
		ref := string(doc.Digest) // a member image goes up by digest
		if doc.Digest == desc.Digest {
			ref = tag
		}
		return c.PushManifest(ctx, name, ref, manifestMediaType(doc.MediaType, children), raw)
	})
}

// manifestMediaType returns declared, or when a document travelled
// without one, the type its shape implies: an index has children.
func manifestMediaType(declared string, children []oci.Descriptor) string {
	switch {
	case declared != "":
		return declared
	case len(children) > 0:
		return oci.MediaTypeIndex
	}
	return oci.MediaTypeManifest
}

// PushManifest PUTs the manifest document body at name:ref (tag or
// digest), retrying transient failures. The blobs it references must
// already be on the registry.
func (c *Client) PushManifest(ctx context.Context, name, ref, mediaType string, body []byte) error {
	return c.Retry(ctx, func(ctx context.Context) error {
		header := http.Header{"Content-Type": {mediaType}}
		resp, err := c.Do(ctx, http.MethodPut, c.url(name, "manifests", ref), header, bytes.NewReader(body), http.StatusCreated)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
}

// --- pull side ---

// maxManifestSize bounds a manifest document, as the registry bounds one
// it accepts.
const maxManifestSize = 16 << 20

// fetchManifest retrieves the manifest (or index) at name:ref and
// hands over the document as it was received and hashed, for a store to
// keep, with its digest and media type. The digest is verified against
// the Docker-Content-Digest header and, for digest refs, the ref itself.
// A document longer than 16 MiB is an error wrapping oci.ErrBlobTooLarge,
// after one request.
func (c *Client) fetchManifest(ctx context.Context, name, ref string) (*oci.Receiver, digest.Digest, string, error) {
	var rc oci.Receiver
	var d digest.Digest
	var mediaType string
	err := c.Retry(ctx, func(ctx context.Context) error {
		rc.Reset()
		header := http.Header{"Accept": {oci.MediaTypeManifest + ", " + oci.MediaTypeIndex}}
		resp, err := c.Do(ctx, http.MethodGet, c.url(name, "manifests", ref), header, nil, http.StatusOK)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		size := resp.ContentLength // -1 when undeclared: the buffer grows
		if size <= maxManifestSize {
			// At most the bound + 1 bytes: a longer body is found, not cut.
			if err := rc.Receive(io.LimitReader(resp.Body, maxManifestSize+1), size, true); err != nil {
				return fmt.Errorf("distrib: reading manifest: %w", err)
			}
			size = int64(rc.Len())
		}
		if size > maxManifestSize {
			return fmt.Errorf("distrib: manifest %s is over %d bytes: %w", ref, maxManifestSize, oci.ErrBlobTooLarge)
		}
		mediaType = resp.Header.Get("Content-Type")
		d = rc.Digest()
		if hd := resp.Header.Get("Docker-Content-Digest"); hd != "" {
			want, err := digest.Parse(hd)
			if err != nil {
				return fmt.Errorf("distrib: malformed Docker-Content-Digest header %q: %w", hd, err)
			}
			if want != d {
				return fmt.Errorf("distrib: manifest digest mismatch: header %s, content %s", want.Short(), d.Short())
			}
		}
		return nil
	})
	if err != nil {
		return nil, "", "", err
	}
	if want, perr := digest.Parse(ref); perr == nil && want != d {
		return nil, "", "", fmt.Errorf("distrib: manifest %s served wrong content %s", want.Short(), d.Short())
	}
	return &rc, d, mediaType, nil
}

// FetchBlob downloads the blob bd names from repository name into dst,
// verifying the digest and, when bd states one, the size (see fetch).
// Concurrent fetches of the same digest collapse into one transfer;
// waiters honor their context.
func (c *Client) FetchBlob(ctx context.Context, dst Store, name string, bd oci.Descriptor) error {
	_, shared, err := c.flights.DoContext(ctx, bd.Digest, func() (_ struct{}, err error) {
		if dst.Has(bd.Digest) {
			return
		}
		return struct{}{}, c.fetch(ctx, name, bd, func(rc *oci.Receiver) error {
			_, _, err := dst.Ingest(rc, bd.Digest)
			return err
		})
	})
	if shared && err == nil && !dst.Has(bd.Digest) {
		// The transfer joined was filling another caller's store.
		return c.FetchBlob(ctx, dst, name, bd)
	}
	return err
}

// FetchBytes is FetchBlob for a caller that wants one blob's content
// and has no store to keep it in: it downloads blob d of repository
// name and returns the bytes, verified against d. The slice is the
// caller's own.
func (c *Client) FetchBytes(ctx context.Context, name string, d digest.Digest) ([]byte, error) {
	var out []byte
	err := c.fetch(ctx, name, oci.Descriptor{Digest: d}, func(rc *oci.Receiver) error {
		out = rc.Bytes()
		return nil
	})
	return out, err
}

// fetch downloads blob bd.Digest into an oci.Receiver and, once the
// bytes hash to it, hands that to keep, which owns it if it returns nil.
// The blob lands in one buffer allocated at its size (oci.ReadSized):
// bd.Size when the caller's descriptor states one, which the response's
// Content-Length must then agree with, else the Content-Length, as the
// declaration it is. Each byte is hashed in the read that delivers it,
// so the check is done when the last byte lands. The bytes received so
// far, and their hash, survive across attempts: a transfer cut
// mid-stream, or an attempt that never got a response, resumes with a
// Range request from the committed offset. Only evidence that the
// accumulated bytes are wrong rather than incomplete — a status other
// than the one asked for (including the 416 of a stale offset), a length
// that contradicts the descriptor, a digest mismatch — restarts bytes
// and hash from scratch.
func (c *Client) fetch(ctx context.Context, name string, bd oci.Descriptor, keep func(*oci.Receiver) error) error {
	d := bd.Digest
	var rc oci.Receiver
	return c.Retry(ctx, func(ctx context.Context) error {
		// A 206 is a body only in answer to a Range.
		var header http.Header
		accept := []int{http.StatusOK}
		if rc.Len() > 0 {
			header = http.Header{"Range": {fmt.Sprintf("bytes=%d-", rc.Len())}}
			accept = append(accept, http.StatusPartialContent)
		}
		resp, err := c.Do(ctx, http.MethodGet, c.url(name, "blobs", string(d)), header, nil, accept...)
		if err != nil {
			if StatusCode(err) != 0 {
				rc.Reset()
			}
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			// Full body (fresh fetch, or a server that ignored the Range).
			rc.Reset()
		}
		size := int64(-1)
		if resp.ContentLength >= 0 {
			size = int64(rc.Len()) + resp.ContentLength
		}
		if bd.Size > 0 {
			if size >= 0 && size != bd.Size {
				rc.Reset()
				return fmt.Errorf("distrib: blob %s: registry declares %d bytes, its descriptor %d", d.Short(), size, bd.Size)
			}
			size = bd.Size
		}
		if err := rc.Receive(resp.Body, size, bd.Size <= 0); err != nil {
			return fmt.Errorf("distrib: reading blob %s: %w", d.Short(), err)
		}
		if got := rc.Digest(); got != d {
			rc.Reset()
			return fmt.Errorf("distrib: blob %s: digest mismatch: content is %s", d.Short(), got.Short())
		}
		if err := keep(&rc); err != nil {
			rc.Reset()
			return fmt.Errorf("distrib: blob %s: %w", d.Short(), err)
		}
		return nil
	})
}

// PullImage downloads name:ref (tag or digest; image or manifest
// list) into dst, fetching missing blobs in parallel and skipping
// blobs dst already holds. Returns the manifest descriptor.
func (c *Client) PullImage(ctx context.Context, dst Store, name, ref string) (oci.Descriptor, error) {
	rc, d, mediaType, err := c.fetchManifest(ctx, name, ref)
	if err != nil {
		return oci.Descriptor{}, err
	}
	root := oci.Descriptor{MediaType: mediaType, Digest: d, Size: int64(len(rc.Bytes()))}
	// Each document as received, until its turn to be stored. ref may be
	// a tag, so what it named is in hand under its digest.
	docs := map[digest.Digest]*oci.Receiver{d: rc}
	get := func(child digest.Digest) ([]byte, error) {
		doc, ok := docs[child]
		if !ok {
			var err error
			if doc, _, _, err = c.fetchManifest(ctx, name, string(child)); err != nil {
				return nil, err
			}
			docs[child] = doc
		}
		return doc.Bytes(), nil
	}
	err = oci.Walk(root, get, func(doc oci.Descriptor, _ []byte, blobs, children []oci.Descriptor) error {
		tasks := make([]func() error, 0, len(blobs))
		for _, bd := range blobs {
			if dst.Has(bd.Digest) {
				continue // cross-image layer dedup: already local
			}
			tasks = append(tasks, func() error { return c.FetchBlob(ctx, dst, name, bd) })
		}
		if err := c.runPool(tasks); err != nil {
			return err
		}
		if _, _, err := dst.Ingest(docs[doc.Digest], doc.Digest); err != nil {
			return fmt.Errorf("distrib: storing manifest: %w", err)
		}
		if doc.Digest == d {
			root.MediaType = manifestMediaType(mediaType, children)
		}
		return nil
	})
	if err != nil {
		return oci.Descriptor{}, err
	}
	return root, nil
}
