package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"comtainer/internal/cachekit"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
)

// replicationRepo is the repository name replication pushes use; the
// registry's blob namespace is repository-agnostic, so any stable
// name works.
const replicationRepo = "fleet-replication"

// Replicator is the leader side of shard replication — a
// registry.CommitHook. A blob streams to the followers as the leader
// stores it, then goes to the shard's write log; a manifest is pushed
// to them while the leader stores it. The hook (so the leader's 201)
// succeeds once every follower holds the write, so an acknowledged
// push survives killing the leader.
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

// clientFor returns the (cached) client of one follower. Like every
// client, it pushes a blob in one request, streamed from the leader's
// store into the follower's.
func (r *Replicator) clientFor(base string) *distrib.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.clients[base]; ok {
		return c
	}
	c := distrib.NewClient(base)
	c.HTTP = replicationClient
	if r.clients == nil {
		r.clients = make(map[string]*distrib.Client)
	}
	r.clients[base] = c
	return c
}

// BlobCommitted streams blob d to every follower as the leader stores
// it — one request each, no HEAD first — logs it once stored (body ends
// in io.EOF), and returns once every follower holds it durably. A
// follower whose request fails is fed no more, and its retry reads the
// leader's copy once the stream has ended; one that stops reading holds
// the leader up until ctx ends its request.
func (r *Replicator) BlobCommitted(ctx context.Context, d digest.Digest, size int64, body io.Reader) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	followers := r.Followers()
	shares := make([]*share, len(followers))
	feeds := make(fanout, len(followers))
	ended := make(chan struct{})
	for i := range shares {
		shares[i] = &share{ended: ended}
		shares[i].PipeReader, feeds[i] = io.Pipe()
	}
	return cachekit.Parallel(len(followers)+1, 0, func(i int) error {
		if i < len(followers) {
			if err := r.clientFor(followers[i]).PushStream(ctx, replicationRepo, d, shares[i], size, r.src); err != nil {
				return fmt.Errorf("fleet: replicating blob %s to %s: %w", d.Short(), followers[i], err)
			}
			return nil
		}
		buf := relayBufs.Get().(*[32 << 10]byte)
		defer relayBufs.Put(buf)
		_, err := io.CopyBuffer(feeds, body, buf[:])
		for _, w := range feeds {
			w.CloseWithError(err)
		}
		close(ended)
		if err != nil {
			cancel(err) // the leader does not hold d: no retry can read it
			return err
		}
		_, err = r.log.Append(LogEntry{Kind: KindBlob, Digest: d})
		return err
	})
}

// relayBufs holds the copy buffers a blob is relayed through.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// fanout writes to the followers' shares of a blob, passing over closed ones.
type fanout []*io.PipeWriter

func (f fanout) Write(p []byte) (int, error) {
	for _, w := range f {
		_, _ = w.Write(p)
	}
	return len(p), nil
}

// share is one follower's part of a streamed blob, the body of the
// first attempt to push it. Closing it stops the feed, then waits for
// the stream to end: a retry reads the leader's copy once it is there.
type share struct {
	*io.PipeReader
	ended <-chan struct{}
}

func (s *share) Close() error {
	s.PipeReader.Close()
	<-s.ended
	return nil
}

// ManifestCommitted re-issues the manifest PUT on every follower, whose
// tag store, like the leader's, logs the tag durably before it answers.
func (r *Replicator) ManifestCommitted(ctx context.Context, name, ref, mediaType string, body []byte) error {
	followers := r.Followers()
	return cachekit.Parallel(len(followers), 0, func(i int) error {
		if err := r.clientFor(followers[i]).PushManifest(ctx, name, ref, mediaType, body); err != nil {
			return fmt.Errorf("fleet: replicating manifest %s:%s to %s: %w", name, ref, followers[i], err)
		}
		return nil
	})
}
