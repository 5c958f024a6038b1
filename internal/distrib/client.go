package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
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
// Every method takes a context: cancelling it aborts in-flight
// requests and any retry/backoff wait within one timer tick — there is
// no uncancellable sleep anywhere on the retry path. Interrupted blob
// downloads resume with HTTP Range requests from the bytes already
// received instead of restarting.
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
	// Retries is how many times a transient failure is retried (default 3).
	Retries int
	// RetryBackoff is the initial backoff, doubled per retry (default 25ms).
	RetryBackoff time.Duration
	// OpTimeout, when positive, bounds each network attempt with a
	// deadline; the attempt is retried (the parent context permitting)
	// rather than hanging on a stalled registry. Zero disables the
	// per-attempt deadline.
	OpTimeout time.Duration

	flights cachekit.Flight[digest.Digest, struct{}]
}

// NewClient returns a client for the registry at base with default
// concurrency and retry settings.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
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

// httpStatusError is a non-2xx response; its code drives the
// transient-vs-permanent retry decision.
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

// statusError drains and closes resp and returns an httpStatusError.
func statusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return &httpStatusError{
		Code:   resp.StatusCode,
		Status: resp.Status,
		URL:    resp.Request.URL.String(),
		Body:   string(body),
	}
}

// IsNotFound reports whether err is a definitive 404 from the
// registry — the reference does not exist, as opposed to a transport
// or server failure. Callers use it to tell "cache miss" from "cache
// broken".
func IsNotFound(err error) bool {
	var he *httpStatusError
	return errors.As(err, &he) && he.Code == http.StatusNotFound
}

// transient reports whether err is worth retrying.
//
// Retryable: server-side statuses (5xx, 429, 408, and 416 — the
// resume-offset handshake restarts from scratch), truncated bodies
// (io.ErrUnexpectedEOF), connection resets/refusals and other
// transport-level failures, and per-attempt deadline expiry.
//
// Permanent: other 4xx client errors, and context cancellation — a
// caller that cancelled must never be held for another attempt.
func transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.Code >= 500 ||
			he.Code == http.StatusTooManyRequests ||
			he.Code == http.StatusRequestTimeout ||
			he.Code == http.StatusRequestedRangeNotSatisfiable
	}
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, context.DeadlineExceeded):
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// Unknown failure (e.g. a digest mismatch from a corrupted body):
	// assume transient; the retry budget bounds the damage.
	return true
}

// attempt runs fn once under the per-attempt deadline, if configured.
func (c *Client) attempt(ctx context.Context, fn func(context.Context) error) error {
	if c.OpTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.OpTimeout)
		defer cancel()
	}
	return fn(ctx)
}

// withRetry runs fn, retrying transient failures with exponential
// backoff up to c.Retries times. Cancelling ctx aborts both the
// in-flight attempt and any backoff wait.
func (c *Client) withRetry(ctx context.Context, fn func(context.Context) error) error {
	backoff := c.backoff()
	var err error
	for attempt := 0; ; attempt++ {
		err = c.attempt(ctx, fn)
		if err == nil || !transient(err) || attempt >= c.retries() {
			return err
		}
		if ctx.Err() != nil {
			// The parent was cancelled (fn may have surfaced it as a
			// wrapped transport error): stop retrying immediately and
			// report the cancellation, keeping the last failure for
			// the log line.
			return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), err)
		}
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

// get issues a GET with the context attached.
func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.httpClient().Do(req)
}

// Ping checks the registry is alive.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.get(ctx, c.Base+"/v2/")
	if err != nil {
		return fmt.Errorf("distrib: ping: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("distrib: ping: status %s", resp.Status)
	}
	return nil
}

// ListTags returns the sorted tags of repository name.
func (c *Client) ListTags(ctx context.Context, name string) ([]string, error) {
	resp, err := c.get(ctx, c.url(name, "tags", "list"))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.url(name, "blobs", string(d)), nil)
	if err != nil {
		return false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("distrib: HEAD blob %s: status %s", d.Short(), resp.Status)
	}
}

// --- push side ---

// startUpload opens an upload session in repository name and returns
// the session's absolute URL.
func (c *Client) startUpload(ctx context.Context, name string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(name, "blobs", "uploads")+"/", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("distrib: starting upload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", statusError(resp)
	}
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
	resp, err := c.get(ctx, loc)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return 0, statusError(resp)
	}
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

// sendChunks PATCHes the remainder of blob d starting at offset.
func (c *Client) sendChunks(ctx context.Context, loc string, src BlobSource, d digest.Digest, offset int64) error {
	r, size, err := src.Open(d)
	if err != nil {
		return err
	}
	defer r.Close()
	if offset > 0 {
		if _, err := io.CopyN(io.Discard, r, offset); err != nil {
			return fmt.Errorf("distrib: seeking to resume offset %d: %w", offset, err)
		}
	}
	buf := make([]byte, min(c.chunkSize(), size-offset))
	for offset < size {
		n, err := io.ReadFull(r, buf)
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = nil
		}
		if err != nil {
			return fmt.Errorf("distrib: reading blob %s: %w", d.Short(), err)
		}
		if n == 0 {
			break
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPatch, loc, bytes.NewReader(buf[:n]))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("Content-Range", fmt.Sprintf("%d-%d", offset, offset+int64(n)-1))
		req.ContentLength = int64(n)
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("distrib: uploading chunk of %s: %w", d.Short(), err)
		}
		if resp.StatusCode != http.StatusAccepted {
			return statusError(resp)
		}
		resp.Body.Close()
		offset += int64(n)
	}
	return nil
}

// finalizeUpload PUTs the digest to close the session.
func (c *Client) finalizeUpload(ctx context.Context, loc string, d digest.Digest) error {
	sep := "?"
	if strings.Contains(loc, "?") {
		sep = "&"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, loc+sep+"digest="+string(d), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("distrib: finalizing upload of %s: %w", d.Short(), err)
	}
	if resp.StatusCode != http.StatusCreated {
		return statusError(resp)
	}
	resp.Body.Close()
	return nil
}

// pushMonolithic sends blob d, all size bytes of r, in the protocol's
// single-request form: POST …/blobs/uploads/?digest=. No session is
// opened, so a failure leaves nothing to resume; the caller starts over.
func (c *Client) pushMonolithic(ctx context.Context, name string, r io.Reader, size int64, d digest.Digest) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(name, "blobs", "uploads")+"/?digest="+string(d), r)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.ContentLength = size
	if size == 0 {
		req.Body = http.NoBody
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("distrib: uploading %s: %w", d.Short(), err)
	}
	if resp.StatusCode != http.StatusCreated {
		return statusError(resp)
	}
	resp.Body.Close()
	return nil
}

// PushBlob uploads blob d from src into repository name. Blobs the
// registry already holds are skipped. A blob that fits one chunk goes
// up in one request; a larger one uses the chunked upload protocol,
// where a transfer interrupted mid-PATCH resumes from the offset the
// server reports rather than restarting.
func (c *Client) PushBlob(ctx context.Context, name string, src BlobSource, d digest.Digest) error {
	if ok, err := c.HasBlob(ctx, name, d); err == nil && ok {
		return nil
	}
	return c.withRetry(ctx, func(ctx context.Context) error {
		r, size, err := src.Open(d)
		if err != nil {
			return err
		}
		defer r.Close()
		if size <= c.chunkSize() {
			return c.pushMonolithic(ctx, name, r, size, d)
		}
		// Only the size was needed: sendChunks opens its own reader, per
		// attempt and resume offset.
		loc, err := c.startUpload(ctx, name)
		if err != nil {
			return err
		}
		backoff := c.backoff()
		var offset int64
		for attempt := 0; ; attempt++ {
			err := c.sendChunks(ctx, loc, src, d, offset)
			if err == nil {
				return c.finalizeUpload(ctx, loc, d)
			}
			if !transient(err) || attempt >= c.retries() {
				return err
			}
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("%w (last attempt: %v)", cerr, err)
			}
			if serr := ctxutil.Sleep(ctx, backoff); serr != nil {
				return fmt.Errorf("%w (last attempt: %v)", serr, err)
			}
			backoff *= 2
			// Resume from the server's committed offset; if the
			// session itself is gone, surface the original error so
			// the outer retry opens a fresh one.
			off, oerr := c.uploadOffset(ctx, loc)
			if oerr != nil {
				return err
			}
			offset = off
		}
	})
}

// PushImage uploads the image (or manifest list) named by desc from
// src as name:tag: every referenced blob first — in parallel — and
// every member image by digest, then the manifest, so the registry
// never sees a manifest with dangling references.
func (c *Client) PushImage(ctx context.Context, src BlobSource, desc oci.Descriptor, name, tag string) error {
	raw, err := ReadBlob(src, desc.Digest)
	if err != nil {
		return fmt.Errorf("distrib: loading manifest %s: %w", desc.Digest.Short(), err)
	}
	blobs, children, err := oci.References(raw)
	if err != nil {
		return fmt.Errorf("distrib: manifest %s: %w", desc.Digest.Short(), err)
	}
	for _, child := range children {
		if err := c.PushImage(ctx, src, child, name, string(child.Digest)); err != nil {
			return err
		}
	}
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
	return c.PushManifest(ctx, name, tag, manifestMediaType(desc.MediaType, children), raw)
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
	return c.withRetry(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(name, "manifests", ref), bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", mediaType)
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("distrib: pushing manifest: %w", err)
		}
		if resp.StatusCode != http.StatusCreated {
			return statusError(resp)
		}
		resp.Body.Close()
		return nil
	})
}

// --- pull side ---

// FetchManifest retrieves the manifest (or index) at name:ref and
// returns its bytes, digest and media type. The digest is verified
// against the Docker-Content-Digest header and, for digest refs, the
// ref itself.
func (c *Client) FetchManifest(ctx context.Context, name, ref string) ([]byte, digest.Digest, string, error) {
	var body []byte
	var mediaType string
	err := c.withRetry(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(name, "manifests", ref), nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", oci.MediaTypeManifest+", "+oci.MediaTypeIndex)
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("distrib: fetching manifest %s:%s: %w", name, ref, err)
		}
		if resp.StatusCode != http.StatusOK {
			return statusError(resp)
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		if err != nil {
			return fmt.Errorf("distrib: reading manifest: %w", err)
		}
		mediaType = resp.Header.Get("Content-Type")
		if hd := resp.Header.Get("Docker-Content-Digest"); hd != "" {
			want, err := digest.Parse(hd)
			if err != nil {
				return fmt.Errorf("distrib: malformed Docker-Content-Digest header %q: %w", hd, err)
			}
			if got := digest.FromBytes(body); want != got {
				return fmt.Errorf("distrib: manifest digest mismatch: header %s, content %s", want.Short(), got.Short())
			}
		}
		return nil
	})
	if err != nil {
		return nil, "", "", err
	}
	d := digest.FromBytes(body)
	if want, perr := digest.Parse(ref); perr == nil && want != d {
		return nil, "", "", fmt.Errorf("distrib: manifest %s served wrong content %s", want.Short(), d.Short())
	}
	return body, d, mediaType, nil
}

// FetchBlob downloads blob d from repository name into dst, verifying
// the digest. The bytes received so far survive across retries: a
// transfer cut mid-stream resumes with a Range request from the
// committed offset, and only a digest mismatch (the accumulated bytes
// are wrong, not merely incomplete) restarts from scratch. Concurrent
// fetches of the same digest collapse into one transfer; waiters honor
// their context.
func (c *Client) FetchBlob(ctx context.Context, dst Store, name string, d digest.Digest) error {
	_, shared, err := c.flights.DoContext(ctx, d, func() (_ struct{}, err error) {
		if dst.Has(d) {
			return
		}
		var buf bytes.Buffer // bytes verified-received across attempts
		return struct{}{}, c.withRetry(ctx, func(ctx context.Context) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(name, "blobs", string(d)), nil)
			if err != nil {
				return err
			}
			resume := buf.Len() > 0
			if resume {
				req.Header.Set("Range", fmt.Sprintf("bytes=%d-", buf.Len()))
			}
			resp, err := c.httpClient().Do(req)
			if err != nil {
				return fmt.Errorf("distrib: fetching blob %s: %w", d.Short(), err)
			}
			switch {
			case resume && resp.StatusCode == http.StatusPartialContent:
				// Continuing from the committed offset.
			case resp.StatusCode == http.StatusOK:
				// Full body (fresh fetch, or a server that ignored the
				// Range): start over.
				buf.Reset()
			default:
				// Includes 416 from a stale resume offset: statusError
				// classifies it transient and the cleared buffer makes
				// the next attempt fetch from scratch.
				buf.Reset()
				return statusError(resp)
			}
			_, cerr := io.Copy(&buf, io.LimitReader(resp.Body, 1<<30))
			resp.Body.Close()
			if cerr != nil {
				return fmt.Errorf("distrib: reading blob %s: %w", d.Short(), cerr)
			}
			// Ingest verifies the digest; a corrupt accumulation fails
			// verification, restarts clean, and is retried.
			if _, _, err := dst.Ingest(bytes.NewReader(buf.Bytes()), d); err != nil {
				buf.Reset()
				return fmt.Errorf("distrib: ingesting blob %s: %w", d.Short(), err)
			}
			return nil
		})
	})
	if shared && err == nil && !dst.Has(d) {
		// The transfer joined was filling another caller's store.
		return c.FetchBlob(ctx, dst, name, d)
	}
	return err
}

// PullImage downloads name:ref (tag or digest; image or manifest
// list) into dst, fetching missing blobs in parallel and skipping
// blobs dst already holds. Returns the manifest descriptor.
func (c *Client) PullImage(ctx context.Context, dst Store, name, ref string) (oci.Descriptor, error) {
	body, d, mediaType, err := c.FetchManifest(ctx, name, ref)
	if err != nil {
		return oci.Descriptor{}, err
	}
	blobs, children, err := oci.References(body)
	if err != nil {
		return oci.Descriptor{}, fmt.Errorf("distrib: manifest %s: %w", d.Short(), err)
	}
	for _, child := range children {
		if _, err := c.PullImage(ctx, dst, name, string(child.Digest)); err != nil {
			return oci.Descriptor{}, err
		}
	}
	tasks := make([]func() error, 0, len(blobs))
	for _, bd := range blobs {
		if dst.Has(bd.Digest) {
			continue // cross-image layer dedup: already local
		}
		tasks = append(tasks, func() error { return c.FetchBlob(ctx, dst, name, bd.Digest) })
	}
	if err := c.runPool(tasks); err != nil {
		return oci.Descriptor{}, err
	}
	if _, _, err := dst.Ingest(bytes.NewReader(body), d); err != nil {
		return oci.Descriptor{}, fmt.Errorf("distrib: storing manifest: %w", err)
	}
	return oci.Descriptor{MediaType: manifestMediaType(mediaType, children), Digest: d, Size: int64(len(body))}, nil
}
