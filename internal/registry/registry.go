// Package registry implements an OCI distribution registry over HTTP
// (stdlib only) plus a push/pull client — the repository hop of the
// coMtainer workflow ("images are then distributed via repositories",
// paper §1). The server mounts any distrib.Store, so it runs either
// fully in memory (oci.Store) or persistently on disk
// (distrib.DiskStore), and speaks the distribution upload protocol:
// resumable POST/PATCH/PUT blob upload sessions, HTTP Range blob GETs,
// and manifest push/pull by tag or digest, including manifest lists.
package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// DefaultGCGrace is how long a freshly committed blob is protected
// from GC even while unreferenced — long enough for the push that
// committed it to finish uploading siblings and register the manifest.
const DefaultGCGrace = time.Minute

// CommitHook replicates writes before they are acknowledged. A fleet
// shard leader mounts one to forward every commit to its followers: the
// handler responds 201 only once the hook and the local store have both
// succeeded. A hook error is a 503, which clients retry, and rolls the
// write back when nothing else stands on it (Server.endCommit).
type CommitHook interface {
	// BlobCommitted runs while blob d is stored: body yields its size
	// bytes (-1: not known) as the store takes them in, and ends in
	// io.EOF only once the store has verified and holds d, else with the
	// store's error. The store waits on the hook's reads until it returns.
	BlobCommitted(ctx context.Context, d digest.Digest, size int64, body io.Reader) error
	// ManifestCommitted runs while the manifest document body, pushed
	// under ref (tag or digest), is stored, before the tag is registered.
	ManifestCommitted(ctx context.Context, name, ref, mediaType string, body []byte) error
}

// Server is an OCI registry over a pluggable blob and tag store.
type Server struct {
	// TrustReferences skips the referenced-blobs-present check on
	// manifest PUTs. Fleet shards run with it set: blobs are
	// partitioned across shards by digest while manifests are fanned
	// out to every shard, so the fleet-wide referential check belongs
	// to the proxy, not the individual shard.
	TrustReferences bool

	blobs   distrib.Store
	refs    distrib.TagStore
	uploads *distrib.UploadManager

	hookMu sync.Mutex
	hook   CommitHook

	commitMu sync.Mutex
	commits  map[digest.Digest]*commits // in flight or within DefaultGCGrace
}

// commits is what the recent commits of one digest share.
type commits struct {
	at   time.Time // when the last began: its GC pin runs from here
	n    int       // in flight
	keep bool      // held before the first began, or acknowledged since
}

// NewServer returns an in-memory registry server.
func NewServer() *Server {
	return NewServerWith(oci.NewStore(), distrib.NewMemTags())
}

// NewServerAt returns a registry server persisted under dir, an image
// directory (distrib.LoadLayout): blobs in a distrib.DiskStore, tags in
// the synced log of a distrib.DiskTags. Opening is the recovery pass —
// the store quarantines what does not hash to its name and sweeps
// interrupted writes, and tags whose manifest never landed are dropped
// — so reopening the same dir after a restart or a crash serves
// everything previously pushed. Upload sessions are held in memory.
// The tag store opens first: it takes the directory's lock, so a
// registry never opens, or sweeps the temp files of, a directory a
// save or another registry is writing (distrib.ErrDirInUse).
func NewServerAt(dir string) (*Server, error) {
	refs, err := distrib.NewDiskTags(dir)
	if err != nil {
		return nil, err
	}
	blobs, err := distrib.NewDiskStore(dir)
	if err != nil {
		return nil, errors.Join(err, refs.Close())
	}
	if _, err := distrib.SweepDanglingRefs(refs, blobs); err != nil {
		return nil, errors.Join(err, refs.Close())
	}
	return NewServerWith(blobs, refs), nil
}

// NewServerWith returns a server over caller-provided stores.
func NewServerWith(blobs distrib.Store, refs distrib.TagStore) *Server {
	return &Server{blobs: blobs, refs: refs, uploads: distrib.NewUploadManager(), commits: make(map[digest.Digest]*commits)}
}

// Blobs exposes the mounted blob store (for inspection and GC).
func (s *Server) Blobs() distrib.Store { return s.blobs }

// SetCommitHook installs (or, with nil, removes) the commit hook.
// Safe to call while the server is handling requests.
func (s *Server) SetCommitHook(h CommitHook) {
	s.hookMu.Lock()
	s.hook = h
	s.hookMu.Unlock()
}

// hookFor returns the commit hook r's write runs, if any: none for
// intra-fleet replication traffic, which must not re-enter it.
func (s *Server) hookFor(r *http.Request) CommitHook {
	if r.Header.Get(distrib.ReplicatedHeader) != "" {
		return nil
	}
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.hook
}

// recentlyCommitted reports whether d is pinned against GC: a commit of
// it is in flight or began within DefaultGCGrace.
func (s *Server) recentlyCommitted(d digest.Digest) bool {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	c, ok := s.commits[d]
	return ok && (c.n > 0 || time.Since(c.at) < DefaultGCGrace)
}

// Uploads exposes the manager holding in-progress upload sessions; its
// TTL bounds how long an abandoned one is kept.
func (s *Server) Uploads() *distrib.UploadManager { return s.uploads }

// GC deletes every blob unreachable from the currently tagged
// manifests and manifest lists, returning the number dropped. Blobs
// committed within DefaultGCGrace survive even while unreferenced, so a
// sweep racing an in-flight push never collects a blob between its
// commit and the manifest's ref registration.
func (s *Server) GC() (int, error) {
	var roots []oci.Descriptor
	for _, desc := range s.refs.All() {
		roots = append(roots, desc)
	}
	return distrib.GC(s.blobs, roots, s.recentlyCommitted)
}

// Handler returns the HTTP handler implementing the distribution API:
// the shared front-end over this server as its Backend.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v2/", NewFrontend(s, s.uploads))
	return mux
}

// ServeBlob implements Backend from the mounted store.
func (s *Server) ServeBlob(w http.ResponseWriter, r *http.Request, _ string, d digest.Digest) {
	serveBlob(w, r, s.blobs, d)
}

// HasBlob implements Backend. A fleet shard trusts every reference:
// the check belongs to the proxy (see TrustReferences).
func (s *Server) HasBlob(_ context.Context, d digest.Digest) (bool, error) {
	return s.TrustReferences || s.blobs.Has(d), nil
}

// CommitBlob implements Backend: the content, pinned against GC, goes
// into the mounted store and, as the store reads it, to the commit
// hook; the nil that lets the front-end answer 201 waits for both.
func (s *Server) CommitBlob(r *http.Request, _ string, d digest.Digest, ingest func(distrib.BlobSink) error) error {
	c := s.beginCommit(d)
	hook := s.hookFor(r)
	if hook == nil {
		return s.endCommit(d, c, ingest(s.blobs), nil)
	}
	var hookErr error
	err := ingest(sinkFunc(func(body io.Reader, d digest.Digest) (digest.Digest, int64, error) {
		size, _ := oci.Sized(body)
		pr, pw := io.Pipe()
		defer pw.Close() // ends the hook's stream should the store panic
		hooked := make(chan error, 1)
		go func() {
			err := hook.BlobCommitted(r.Context(), d, size, pr)
			_, _ = io.Copy(io.Discard, pr) // the store never waits on a hook that returned
			hooked <- err
		}()
		tee := io.TeeReader(body, pw)
		if size >= 0 {
			tee = oci.NewSizedReader(tee, size) // what the store sizes its copy by
		}
		got, n, err := s.blobs.Ingest(tee, d)
		pw.CloseWithError(err)
		hookErr = <-hooked
		return got, n, err
	}))
	return s.endCommit(d, c, err, hookErr)
}

// sinkFunc is a BlobSink that is a function.
type sinkFunc func(r io.Reader, want digest.Digest) (digest.Digest, int64, error)

func (f sinkFunc) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	return f(r, want)
}

// beginCommit counts a commit of d in flight and pins d against GC
// before the store holds it. Has runs before the lock: a commit storing
// d since then has left an entry, which outlives the question.
func (s *Server) beginCommit(d digest.Digest) *commits {
	held := s.blobs.Has(d)
	now := time.Now()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for old, c := range s.commits {
		if c.n == 0 && now.Sub(c.at) >= DefaultGCGrace {
			delete(s.commits, old)
		}
	}
	c := s.commits[d]
	if c == nil {
		c = &commits{keep: held}
		s.commits[d] = c
	}
	c.at = now
	c.n++
	return c
}

// endCommit retires a commit of d and returns its verdict: the store's
// error, else a hook error as a 503. A failed replication rolls d back,
// so a retry re-uploads instead of short-circuiting on the HEAD probe,
// unless d is kept or another commit of it is in flight; commitMu spans
// the delete, so a commit beginning meanwhile finds d held or gone.
func (s *Server) endCommit(d digest.Digest, c *commits, storeErr, hookErr error) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	c.n--
	if storeErr != nil {
		return storeErr
	}
	if hookErr == nil {
		c.keep = true // acknowledged
		return nil
	}
	err := fmt.Errorf("replication failed: %w", hookErr)
	if c.n == 0 && !c.keep {
		if derr := s.blobs.Delete(d); derr != nil {
			err = fmt.Errorf("%w (rollback failed: %v)", err, derr)
		}
	}
	return WithStatus(http.StatusServiceUnavailable, err)
}

// resolveManifest turns a tag or digest reference into a descriptor.
func (s *Server) resolveManifest(name, ref string) (oci.Descriptor, bool) {
	if desc, ok := s.refs.Resolve(name, ref); ok {
		return desc, true
	}
	if d, err := digest.Parse(ref); err == nil && s.blobs.Has(d) {
		return oci.Descriptor{MediaType: oci.MediaTypeManifest, Digest: d}, true
	}
	return oci.Descriptor{}, false
}

// ServeManifest implements Backend; HEAD returns the same headers
// (Docker-Content-Digest, Content-Type, Content-Length) with no body.
func (s *Server) ServeManifest(w http.ResponseWriter, r *http.Request, name, ref string) {
	desc, ok := s.resolveManifest(name, ref)
	if !ok {
		http.Error(w, "manifest unknown", http.StatusNotFound)
		return
	}
	b, err := distrib.ReadBlob(s.blobs, desc.Digest)
	if err != nil {
		http.Error(w, "manifest blob missing", http.StatusInternalServerError)
		return
	}
	mediaType := desc.MediaType
	if mediaType == "" {
		mediaType = oci.MediaTypeManifest
	}
	w.Header().Set("Content-Type", mediaType)
	w.Header().Set("Docker-Content-Digest", string(desc.Digest))
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	_, _ = w.Write(b)
}

// CommitManifest implements Backend: store the document while the
// commit hook replicates it, then register the tag. A follower promoted
// after a mid-PUT leader crash may hold a ref the dead leader never
// recorded: safe, since only acknowledged state must survive.
func (s *Server) CommitManifest(r *http.Request, name, ref, mediaType string, d digest.Digest, body []byte) error {
	c := s.beginCommit(d)
	hooked := make(chan error, 1)
	if hook := s.hookFor(r); hook != nil {
		go func() { hooked <- hook.ManifestCommitted(r.Context(), name, ref, mediaType, body) }()
	} else {
		hooked <- nil
	}
	_, _, err := s.blobs.Ingest(bytes.NewReader(body), d)
	if err != nil {
		err = WithStatus(http.StatusInternalServerError, err)
	}
	hookErr := <-hooked
	if _, perr := digest.Parse(ref); err == nil && hookErr == nil && perr != nil { // a tag
		if serr := s.refs.Set(name, ref, oci.Descriptor{MediaType: mediaType, Digest: d, Size: int64(len(body))}); serr != nil {
			err = WithStatus(http.StatusInternalServerError, serr)
		}
	}
	return s.endCommit(d, c, err, hookErr)
}

// ServeTags implements Backend: the distribution tags/list endpoint.
func (s *Server) ServeTags(w http.ResponseWriter, _ *http.Request, name string) {
	tags := s.refs.Tags(name)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Name string   `json:"name"`
		Tags []string `json:"tags"`
	}{Name: name, Tags: tags})
}

// Tags lists the known "name:tag" keys (for inspection).
func (s *Server) Tags() []string {
	all := s.refs.All()
	out := make([]string, 0, len(all))
	for k := range all {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- Client ---

// Client pushes and pulls images against a registry base URL, backed
// by the concurrent distrib.Client (parallel layer transfer, one request
// per blob, resumable downloads, retry with backoff, blob dedup).
type Client struct {
	*distrib.Client
}

// NewClient returns a client for the registry at base.
func NewClient(base string) *Client {
	return &Client{Client: distrib.NewClient(base)}
}

// Push uploads the image tagged localTag in repo to the registry as
// name:tag — all referenced blobs first (in parallel, skipping blobs
// the registry already holds), then the manifest. Cancelling ctx
// aborts in-flight transfers and any retry backoff.
func (c *Client) Push(ctx context.Context, repo *oci.Repository, localTag, name, tag string) error {
	desc, err := repo.Resolve(localTag)
	if err != nil {
		return err
	}
	return c.PushImage(ctx, repo.Store, desc, name, tag)
}

// Pull downloads name:tag from the registry into repo under localTag,
// fetching missing layers in parallel. Cancelling ctx aborts in-flight
// transfers and any retry backoff.
func (c *Client) Pull(ctx context.Context, repo *oci.Repository, name, tag, localTag string) error {
	desc, err := c.PullImage(ctx, repo.Store, name, tag)
	if err != nil {
		return err
	}
	repo.Tag(localTag, desc)
	return nil
}
