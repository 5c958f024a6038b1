package registry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// maxManifestSize bounds manifest documents; blobs are unbounded
// (streamed to the store, never buffered whole).
const maxManifestSize = 16 << 20

// Backend is where the front-end hands each operation once the wire
// protocol is done with it: the path is parsed, the digest valid, the
// upload session complete, the manifest document checked. It sits
// above distrib.Store because a store call carries neither a context
// nor a repository name, and cannot tell a blob routed to one shard
// from a manifest fanned out to all of them. Two implementations:
// Server (local store, commit hook, GC pin) and fleet.Proxy (ring
// routing, fan-out, failover).
//
// The serve methods write the whole response. The others return an
// error: one marked by WithStatus is answered with that status, any
// other is the client's fault (400). Where a method takes the request
// it is for its context and headers; the body is the front-end's.
type Backend interface {
	// ServeBlob answers GET or HEAD for blob d.
	ServeBlob(w http.ResponseWriter, r *http.Request, name string, d digest.Digest)
	// ServeManifest answers GET or HEAD for the manifest at ref, a tag
	// or a digest.
	ServeManifest(w http.ResponseWriter, r *http.Request, name, ref string)
	// ServeTags answers the tags/list GET.
	ServeTags(w http.ResponseWriter, r *http.Request, name string)
	// HasBlob is the referential check behind manifest PUTs.
	HasBlob(ctx context.Context, d digest.Digest) (bool, error)
	// CommitBlob stores blob d durably before returning nil. It calls
	// ingest once with the sink the content goes to; ingest has the sink
	// verify the content against d, and its error — unmarked when it is
	// the content's fault — is returned as it is. The content is there
	// to be read only until ingest returns.
	CommitBlob(r *http.Request, name string, d digest.Digest, ingest func(distrib.BlobSink) error) error
	// CommitManifest stores the manifest document body (digest d) and,
	// when ref is a tag, points the tag at it.
	CommitManifest(r *http.Request, name, ref, mediaType string, d digest.Digest, body []byte) error
}

type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// WithStatus marks err as a Backend failure the front-end answers
// with the given HTTP status.
func WithStatus(status int, err error) error {
	return &statusError{status: status, err: err}
}

// fail answers a Backend error: a blob past oci.MaxBlobSize is 413.
func fail(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var se *statusError
	switch {
	case errors.As(err, &se):
		status = se.status
	case errors.Is(err, oci.ErrBlobTooLarge):
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
}

// frontend is the OCI distribution wire protocol: the /v2 path
// grammar, the upload-session state machine, manifest-document
// validation and the response headers of every write.
type frontend struct {
	backend Backend
	uploads *distrib.UploadManager
}

// NewFrontend returns the /v2/ handler that speaks the distribution
// protocol and hands validated operations to b. Upload sessions live
// in uploads until their finalizing PUT.
func NewFrontend(b Backend, uploads *distrib.UploadManager) http.Handler {
	return &frontend{backend: b, uploads: uploads}
}

// ServeHTTP dispatches /v2/<name>/(manifests|blobs|blobs/uploads)/<ref>.
func (f *frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v2/")
	if rest == "" {
		w.WriteHeader(http.StatusOK)
		return
	}
	// Tag enumeration: GET /v2/<name>/tags/list.
	if strings.HasSuffix(rest, "/tags/list") && r.Method == http.MethodGet {
		f.backend.ServeTags(w, r, strings.TrimSuffix(rest, "/tags/list"))
		return
	}
	// Find the resource kind separator from the right so names may
	// contain slashes.
	var name, kind, ref string
	for _, k := range []string{"/manifests/", "/blobs/"} {
		if i := strings.LastIndex(rest, k); i >= 0 {
			name, kind, ref = rest[:i], strings.Trim(k, "/"), rest[i+len(k):]
			break
		}
	}
	if name == "" || (ref == "" && !strings.HasSuffix(rest, "/blobs/uploads/")) {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	if kind == "manifests" {
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			f.backend.ServeManifest(w, r, name, ref)
		case http.MethodPut:
			f.putManifest(w, r, name, ref)
		default:
			http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
		}
		return
	}
	// Blob routes. Upload sessions live under blobs/uploads/.
	if id, ok := strings.CutPrefix(ref, "uploads"); ok {
		f.routeUpload(w, r, name, strings.TrimPrefix(id, "/"))
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		d, err := digest.Parse(ref)
		if err != nil {
			http.Error(w, "invalid digest", http.StatusBadRequest)
			return
		}
		f.backend.ServeBlob(w, r, name, d)
	default:
		http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
	}
}

// routeUpload dispatches the upload-session protocol:
//
//	POST   /v2/<name>/blobs/uploads/           start a session (202, Location)
//	PATCH  /v2/<name>/blobs/uploads/<id>       append a chunk (Content-Range checked)
//	PUT    /v2/<name>/blobs/uploads/<id>?digest=  finalize (verifies digest)
//	GET    /v2/<name>/blobs/uploads/<id>       committed offset (204, Range)
//	DELETE /v2/<name>/blobs/uploads/<id>       cancel
//	PUT    /v2/<name>/blobs/uploads?digest=    legacy monolithic upload
//
// A session accumulates in the front-end's UploadManager; only the
// finalizing PUT reaches the backend, so the client's 201 is issued
// after the backend has the blob durably (on a fleet: on the owning
// shard's leader and, through its replication hook, every follower).
func (f *frontend) routeUpload(w http.ResponseWriter, r *http.Request, name, id string) {
	if id == "" {
		monolithic := r.URL.Query().Get("digest") != ""
		switch {
		case monolithic && (r.Method == http.MethodPost || r.Method == http.MethodPut):
			// The whole blob in one request: the single-POST form and
			// the old single-request PUT (back-compat).
			f.commitBlob(w, r, name, func(sink distrib.BlobSink, want digest.Digest) error {
				_, _, err := sink.Ingest(requestBody(r, io.LimitReader(r.Body, oci.MaxBlobSize)), want)
				return err
			})
		case r.Method == http.MethodPost:
			f.startUpload(w, name)
		default:
			http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
		}
		return
	}
	u, ok := f.uploads.Get(id)
	if !ok {
		http.Error(w, "upload unknown", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodPatch:
		f.patchUpload(w, r, u)
	case http.MethodPut:
		f.commitBlob(w, r, name, func(sink distrib.BlobSink, want digest.Digest) error {
			// An optional trailing chunk may ride on the finalizing PUT.
			if r.ContentLength != 0 {
				if _, err := u.Append(requestBody(r, r.Body), -1); err != nil {
					return err
				}
			}
			_, _, err := f.uploads.Commit(u, sink, want)
			return err
		})
	case http.MethodGet:
		w.Header().Set("Docker-Upload-UUID", u.ID)
		w.Header().Set("Range", uploadRange(u.Size()))
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		f.uploads.Cancel(u)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
	}
}

// contextReader fails reads once ctx is done, so a handler streaming a
// request body into the store stops promptly when the client has gone
// away instead of spooling bytes nobody will finalize.
type contextReader struct {
	ctx context.Context
	r   io.Reader
}

func (c contextReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// requestBody returns src, r's body or a prefix of it, as a reader that
// stops when the client goes away and, when the request declared a
// Content-Length, says how long it is (oci.Sized) — what an in-memory
// sink or spool sizes its one allocation by.
func requestBody(r *http.Request, src io.Reader) io.Reader {
	src = contextReader{r.Context(), src}
	if r.ContentLength < 0 {
		return src
	}
	return oci.NewSizedReader(src, r.ContentLength)
}

// uploadRange renders the session Range header ("0-0" when empty, per
// the docker convention).
func uploadRange(size int64) string {
	if size <= 0 {
		return "0-0"
	}
	return fmt.Sprintf("0-%d", size-1)
}

func (f *frontend) startUpload(w http.ResponseWriter, name string) {
	u, err := f.uploads.Start(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Location", "/v2/"+name+"/blobs/uploads/"+u.ID)
	w.Header().Set("Docker-Upload-UUID", u.ID)
	w.Header().Set("Range", "0-0")
	w.WriteHeader(http.StatusAccepted)
}

func (f *frontend) patchUpload(w http.ResponseWriter, r *http.Request, u *distrib.Upload) {
	expectStart := int64(-1)
	if cr := r.Header.Get("Content-Range"); cr != "" {
		start, _, ok := strings.Cut(strings.TrimPrefix(cr, "bytes "), "-")
		n, err := strconv.ParseInt(start, 10, 64)
		if !ok || err != nil || n < 0 {
			http.Error(w, "malformed Content-Range", http.StatusBadRequest)
			return
		}
		expectStart = n
	}
	size, err := u.Append(requestBody(r, r.Body), expectStart)
	w.Header().Set("Docker-Upload-UUID", u.ID)
	w.Header().Set("Range", uploadRange(size))
	switch {
	case errors.Is(err, oci.ErrBlobTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		// A mis-aligned chunk gets 416 plus the committed range so the
		// client can resume from the recorded offset.
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// commitBlob finishes both upload forms: content streams the request's
// bytes into the sink the backend picks, verified against ?digest=.
func (f *frontend) commitBlob(w http.ResponseWriter, r *http.Request, name string, content func(distrib.BlobSink, digest.Digest) error) {
	want, err := digest.Parse(r.URL.Query().Get("digest"))
	if err != nil {
		http.Error(w, "invalid digest", http.StatusBadRequest)
		return
	}
	err = f.backend.CommitBlob(r, name, want, func(sink distrib.BlobSink) error { return content(sink, want) })
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Location", "/v2/"+name+"/blobs/"+string(want))
	w.Header().Set("Docker-Content-Digest", string(want))
	w.WriteHeader(http.StatusCreated)
}

// putManifest validates a manifest or manifest list pushed by tag or
// by digest and commits it. Per distribution-spec semantics it rejects
// (400, naming the digest) any manifest whose referenced config/layers
// — or, for a list, member manifests — are not yet present, so clients
// must upload blobs first.
func (f *frontend) putManifest(w http.ResponseWriter, r *http.Request, name, ref string) {
	body, err := io.ReadAll(io.LimitReader(contextReader{r.Context(), r.Body}, maxManifestSize))
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	blobs, children, err := oci.References(body)
	if err != nil {
		http.Error(w, "manifest is not valid JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	for _, rd := range append(blobs, children...) {
		ok, err := f.backend.HasBlob(r.Context(), rd.Digest)
		if err != nil {
			fail(w, err)
			return
		}
		if !ok {
			http.Error(w, fmt.Sprintf("manifest references missing blob %s", rd.Digest), http.StatusBadRequest)
			return
		}
	}
	d := digest.FromBytes(body)
	// Push by digest: content must match the reference.
	if want, err := digest.Parse(ref); err == nil && want != d {
		http.Error(w, fmt.Sprintf("manifest digest mismatch: content is %s, ref is %s", d, want), http.StatusBadRequest)
		return
	}
	mediaType := r.Header.Get("Content-Type")
	if mediaType == "" {
		mediaType = oci.MediaTypeManifest
		if len(children) > 0 {
			mediaType = oci.MediaTypeIndex
		}
	}
	if err := f.backend.CommitManifest(r, name, ref, mediaType, d, body); err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Location", "/v2/"+name+"/manifests/"+string(d))
	w.Header().Set("Docker-Content-Digest", string(d))
	w.WriteHeader(http.StatusCreated)
}

// serveBlob answers a blob GET or HEAD from src with distribution-API
// headers, honoring single-range HTTP Range requests ("bytes=a-b" /
// "bytes=a-") with 206 responses.
func serveBlob(w http.ResponseWriter, r *http.Request, src distrib.BlobSource, d digest.Digest) {
	body, size, err := src.Open(d)
	if err != nil {
		http.Error(w, "blob unknown", http.StatusNotFound)
		return
	}
	defer body.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Docker-Content-Digest", string(d))
	w.Header().Set("Accept-Ranges", "bytes")
	if rng := r.Header.Get("Range"); rng != "" && r.Method == http.MethodGet {
		start, end, ok := parseByteRange(rng, size)
		if !ok {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
			http.Error(w, "unsatisfiable range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		if _, err := io.CopyN(io.Discard, body, start); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end, size))
		w.Header().Set("Content-Length", strconv.FormatInt(end-start+1, 10))
		w.WriteHeader(http.StatusPartialContent)
		_, _ = io.CopyN(w, body, end-start+1)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if r.Method == http.MethodGet {
		_, _ = io.Copy(w, body)
	}
}

// parseByteRange parses a single "bytes=a-b" or "bytes=a-" range
// against a blob of the given size, returning the inclusive bounds.
func parseByteRange(rng string, size int64) (start, end int64, ok bool) {
	spec, found := strings.CutPrefix(rng, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	from, to, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	start, err := strconv.ParseInt(from, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	if to == "" {
		return start, size - 1, true
	}
	end, err = strconv.ParseInt(to, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end, true
}
