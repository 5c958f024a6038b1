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
	"fmt"
	"net/http"
	"path/filepath"
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

// CommitHook observes committed writes before they are acknowledged.
// A fleet shard leader mounts one to replicate every commit to its
// followers: the handler only responds 201 once the hook returns nil,
// so an acknowledged write is durable on the follower too. A hook
// error turns into a 503 (and the just-ingested blob is rolled back
// when this request introduced it), so clients retry rather than
// treat an unreplicated write as pushed.
type CommitHook interface {
	// BlobCommitted runs after blob d landed in the store.
	BlobCommitted(ctx context.Context, d digest.Digest) error
	// ManifestCommitted runs after a manifest blob landed, before the
	// tag (if any) is registered locally. body is the manifest
	// document, ref the reference it was pushed under (tag or digest).
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

	recentMu sync.Mutex
	recent   map[digest.Digest]time.Time
}

// NewServer returns an in-memory registry server.
func NewServer() *Server {
	return &Server{
		blobs:   oci.NewStore(),
		refs:    distrib.NewMemTags(),
		uploads: distrib.NewUploadManager(""),
	}
}

// NewServerAt returns a registry server persisted under dir: blobs in
// a sharded distrib.DiskStore, tags one file per reference, upload
// sessions spooled to disk. Reopening the same dir after a restart
// serves everything previously pushed.
func NewServerAt(dir string) (*Server, error) {
	blobs, err := distrib.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	refs, err := distrib.NewDiskTags(dir)
	if err != nil {
		return nil, err
	}
	// Referential crash recovery: a tag whose manifest never committed
	// (crash between ref write and blob rename) must not survive a
	// restart, or every pull of it would 500.
	if _, err := distrib.SweepDanglingRefs(refs, blobs); err != nil {
		return nil, err
	}
	return &Server{
		blobs:   blobs,
		refs:    refs,
		uploads: distrib.NewUploadManager(filepath.Join(dir, "uploads")),
	}, nil
}

// NewServerWith returns a server over caller-provided stores.
func NewServerWith(blobs distrib.Store, refs distrib.TagStore) *Server {
	return &Server{blobs: blobs, refs: refs, uploads: distrib.NewUploadManager("")}
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

func (s *Server) commitHook() CommitHook {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.hook
}

// replicated reports whether the request is intra-fleet replication
// traffic, which must not re-enter the commit hook.
func replicated(r *http.Request) bool {
	return r.Header.Get(distrib.ReplicatedHeader) != ""
}

// noteCommit pins d against GC for DefaultGCGrace and sweeps pins that
// have aged out.
func (s *Server) noteCommit(d digest.Digest) {
	now := time.Now()
	s.recentMu.Lock()
	if s.recent == nil {
		s.recent = make(map[digest.Digest]time.Time)
	}
	cutoff := now.Add(-DefaultGCGrace)
	for old, at := range s.recent {
		if at.Before(cutoff) {
			delete(s.recent, old)
		}
	}
	s.recent[d] = now
	s.recentMu.Unlock()
}

// recentlyCommitted reports whether d is still inside its GC grace
// window.
func (s *Server) recentlyCommitted(d digest.Digest) bool {
	s.recentMu.Lock()
	at, ok := s.recent[d]
	s.recentMu.Unlock()
	return ok && time.Since(at) < DefaultGCGrace
}

// SetUploadTTL bounds how long an idle upload session (and its spool
// file) survives; zero disables expiry. See distrib.UploadManager.
func (s *Server) SetUploadTTL(d time.Duration) { s.uploads.TTL = d }

// Uploads exposes the manager holding in-progress upload sessions.
func (s *Server) Uploads() *distrib.UploadManager { return s.uploads }

// Fsck checks the mounted blob store's integrity (it must be
// disk-backed). With repair false the scan is read-only; with repair
// true corrupt blobs are quarantined, orphaned temp spools removed,
// and tags pointing at missing manifests swept (returned as the
// second value). Exposed on the CLI as comtainer-registry -fsck.
func (s *Server) Fsck(repair bool) (distrib.FsckReport, []string, error) {
	ds, ok := s.blobs.(*distrib.DiskStore)
	if !ok {
		return distrib.FsckReport{}, nil, fmt.Errorf("registry: fsck requires a disk-backed blob store")
	}
	var rep distrib.FsckReport
	var err error
	if repair {
		rep, err = ds.Repair()
		// The open-time Repair may already have healed crash damage;
		// fold its actions in so the operator sees what was fixed
		// rather than a clean scan of the post-repair store.
		open := ds.OpenReport()
		rep.Corrupt = append(open.Corrupt, rep.Corrupt...)
		rep.Misplaced = append(open.Misplaced, rep.Misplaced...)
		rep.OrphanTemps = append(open.OrphanTemps, rep.OrphanTemps...)
		rep.Quarantined += open.Quarantined
		rep.TempsSwept += open.TempsSwept
	} else {
		rep, err = ds.Fsck()
	}
	if err != nil {
		return rep, nil, err
	}
	var removed []string
	if repair {
		removed, err = distrib.SweepDanglingRefs(s.refs, s.blobs)
	}
	return rep, removed, err
}

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

// CommitBlob implements Backend: the content is pinned against GC —
// before the store holds it, so no sweep sees it unpinned — goes straight
// into the mounted store, and is replicated through the commit hook
// before the nil that lets the front-end answer 201.
func (s *Server) CommitBlob(r *http.Request, _ string, d digest.Digest, ingest func(distrib.BlobSink) error) error {
	had := s.blobs.Has(d)
	s.noteCommit(d)
	if err := ingest(s.blobs); err != nil {
		return err
	}
	if hook := s.commitHook(); hook != nil && !replicated(r) {
		if err := hook.BlobCommitted(r.Context(), d); err != nil {
			return s.replicationFailed(err, d, had)
		}
	}
	return nil
}

// replicationFailed turns a commit-hook error into the 503 the client
// retries on and, when this request introduced blob d, rolls the local
// copy back — so a retried push re-uploads and re-replicates instead
// of short-circuiting on the HEAD dedup probe.
func (s *Server) replicationFailed(err error, d digest.Digest, had bool) error {
	err = fmt.Errorf("replication failed: %w", err)
	if !had {
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

// CommitManifest implements Backend: store the document, replicate
// it, then register the tag.
func (s *Server) CommitManifest(r *http.Request, name, ref, mediaType string, d digest.Digest, body []byte) error {
	had := s.blobs.Has(d)
	s.noteCommit(d) // pinned before stored, as in CommitBlob
	if _, _, err := s.blobs.Ingest(bytes.NewReader(body), d); err != nil {
		return WithStatus(http.StatusInternalServerError, err)
	}
	// Replicate before registering the tag locally: an acknowledged
	// manifest must exist on the followers, and a follower promoted
	// after a mid-PUT leader crash may hold a ref the dead leader never
	// recorded — safe, since only acknowledged state must survive.
	if hook := s.commitHook(); hook != nil && !replicated(r) {
		if err := hook.ManifestCommitted(r.Context(), name, ref, mediaType, body); err != nil {
			return s.replicationFailed(err, d, had)
		}
	}
	if _, err := digest.Parse(ref); err != nil {
		// Tag reference: record it.
		err := s.refs.Set(name, ref, oci.Descriptor{MediaType: mediaType, Digest: d, Size: int64(len(body))})
		if err != nil {
			return WithStatus(http.StatusInternalServerError, err)
		}
	}
	return nil
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
// by the concurrent distrib.Client (parallel layer transfer, resumable
// chunked uploads, retry with backoff, cross-image blob dedup).
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
