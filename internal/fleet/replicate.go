package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// replicationRepo is the repository name replication pushes use; the
// registry's blob namespace is repository-agnostic, so any stable
// name works.
const replicationRepo = "fleet-replication"

// Replicator is the leader side of shard replication — a
// registry.CommitHook. Each committed write is appended to the
// shard's write log, then forwarded synchronously to every follower;
// the hook (and therefore the leader's 201) only succeeds once the
// followers have durably written it, so an acknowledged push survives
// killing the leader.
//
// Every replica of a shard can run a symmetric Replicator listing its
// peers: replication requests are stamped with
// distrib.ReplicatedHeader, which the receiving registry uses to skip
// its own hook, so writes fan out exactly one hop. After a follower
// is promoted, its own Replicator keeps replicating to the replicas
// that remain.
type Replicator struct {
	log *WriteLog
	src distrib.BlobSource

	mu        sync.Mutex
	followers []string
	clients   map[string]*distrib.Client
}

// NewReplicator returns a replicator reading blob content from src
// (the leader's own store), logging to log, forwarding to followers.
func NewReplicator(src distrib.BlobSource, log *WriteLog, followers ...string) *Replicator {
	if log == nil {
		log = &WriteLog{}
	}
	r := &Replicator{log: log, src: src}
	r.SetFollowers(followers...)
	return r
}

// SetFollowers replaces the follower set.
func (r *Replicator) SetFollowers(addrs ...string) {
	r.mu.Lock()
	r.followers = append([]string(nil), addrs...)
	r.mu.Unlock()
}

// Followers returns the current follower base URLs.
func (r *Replicator) Followers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.followers...)
}

// headerTransport stamps every outgoing request with one header —
// here distrib.ReplicatedHeader, so the receiving replica's own
// commit hook stays quiet and replication fans out exactly one hop.
type headerTransport struct {
	base       http.RoundTripper
	key, value string
}

func (t headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(t.key, t.value)
	return t.base.RoundTrip(req)
}

// replicationClient is the HTTP client of every follower push: the
// default transport under the replication marker header.
var replicationClient = &http.Client{
	Transport: headerTransport{base: http.DefaultTransport, key: distrib.ReplicatedHeader, value: "1"},
}

// clientFor returns the (cached) client of one follower. Like the
// proxy's, it pushes every blob in one request, streamed from the
// leader's store into the follower's.
func (r *Replicator) clientFor(base string) *distrib.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.clients[base]; ok {
		return c
	}
	c := distrib.NewClient(base)
	c.HTTP = replicationClient
	c.ChunkSize = oci.MaxBlobSize
	if r.clients == nil {
		r.clients = make(map[string]*distrib.Client)
	}
	r.clients[base] = c
	return c
}

// BlobCommitted logs the commit and pushes the blob to every
// follower, returning only after all of them hold it durably.
func (r *Replicator) BlobCommitted(ctx context.Context, d digest.Digest) error {
	if _, err := r.log.Append(LogEntry{Kind: KindBlob, Digest: d}); err != nil {
		return err
	}
	for _, f := range r.Followers() {
		if err := r.clientFor(f).PushBlob(ctx, replicationRepo, r.src, d); err != nil {
			return fmt.Errorf("fleet: replicating blob %s to %s: %w", d.Short(), f, err)
		}
	}
	return nil
}

// ManifestCommitted logs the commit and re-issues the manifest PUT on
// every follower under the same reference.
func (r *Replicator) ManifestCommitted(ctx context.Context, name, ref, mediaType string, body []byte) error {
	entry := LogEntry{Kind: KindManifest, Digest: digest.FromBytes(body), Name: name, Ref: ref, MediaType: mediaType}
	if _, err := r.log.Append(entry); err != nil {
		return err
	}
	for _, f := range r.Followers() {
		if err := r.clientFor(f).PushManifest(ctx, name, ref, mediaType, body); err != nil {
			return fmt.Errorf("fleet: replicating manifest %s:%s to %s: %w", name, ref, f, err)
		}
	}
	return nil
}

// Sync replays the whole write log to addr — catching a follower up
// after it rejoins (restart, or a fresh replica added to the shard).
// Entries whose blob has since been garbage-collected locally are
// skipped: whatever made them collectable (ref removal) is in a later
// entry or no longer acknowledged state.
func (r *Replicator) Sync(ctx context.Context, addr string) error {
	c := r.clientFor(addr)
	for _, e := range r.log.Entries(0) {
		if !r.src.Has(e.Digest) {
			continue
		}
		switch e.Kind {
		case KindBlob:
			if err := c.PushBlob(ctx, replicationRepo, r.src, e.Digest); err != nil {
				return fmt.Errorf("fleet: sync blob %s to %s: %w", e.Digest.Short(), addr, err)
			}
		case KindManifest:
			body, err := distrib.ReadBlob(r.src, e.Digest)
			if err != nil {
				return fmt.Errorf("fleet: sync reading manifest %s: %w", e.Digest.Short(), err)
			}
			if err := c.PushManifest(ctx, e.Name, e.Ref, e.MediaType, body); err != nil {
				return fmt.Errorf("fleet: sync manifest %s:%s to %s: %w", e.Name, e.Ref, addr, err)
			}
		}
	}
	return nil
}
