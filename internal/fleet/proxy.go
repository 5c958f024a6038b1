package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"comtainer/internal/core/ctxutil"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// TablePath is where the proxy serves its routing table.
const TablePath = "/fleet/v1/table"

// DefaultHeartbeatMisses is how many consecutive failed leader pings
// Watch tolerates before promoting a follower.
const DefaultHeartbeatMisses = 2

// Proxy is the stateless fleet front-end: it speaks the OCI
// distribution API, routes every blob operation to the shard group
// owning the digest (with failover promotion when a leader dies
// mid-request), and fans manifest and tag operations out to every
// shard. It keeps no blobs: every read is relayed from the owning
// group. Holding no state a restart can lose — upload sessions aside,
// which clients simply restart — any number of proxies can front the
// same shard fleet.
type Proxy struct {
	// HTTP carries proxy-to-shard traffic (defaults to
	// http.DefaultClient); tests inject fault transports here.
	HTTP *http.Client
	// FarmBackend, when set, is a scheduler base URL that /farm/v1
	// requests are forwarded to, so build-farm workers and executors
	// point their single endpoint at the proxy and get routed blob
	// traffic for free.
	FarmBackend string

	ring    *Ring
	groups  map[string]*ShardGroup
	order   []string // sorted group names
	uploads *distrib.UploadManager

	clientMu sync.Mutex
	clients  map[string]*distrib.Client
}

// NewProxy returns a proxy over the given shard groups, building the
// ring from their names with vnodes virtual nodes per shard
// (DefaultVnodes when <= 0).
func NewProxy(groups []*ShardGroup, vnodes int) (*Proxy, error) {
	names := make([]string, 0, len(groups))
	byName := make(map[string]*ShardGroup, len(groups))
	for _, g := range groups {
		if _, dup := byName[g.Name()]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard group %q", g.Name())
		}
		names = append(names, g.Name())
		byName[g.Name()] = g
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return &Proxy{
		ring:    ring,
		groups:  byName,
		order:   names,
		uploads: distrib.NewUploadManager(""),
	}, nil
}

// Ring exposes the proxy's routing ring.
func (p *Proxy) Ring() *Ring { return p.ring }

// groupFor returns the shard group owning blob d.
func (p *Proxy) groupFor(d digest.Digest) *ShardGroup {
	return p.groups[p.ring.Owner(d)]
}

// groupsFrom returns every group, starting at the owner of key —
// the deterministic primary for fanned-out resources (manifests,
// tags), with the rest as fallbacks.
func (p *Proxy) groupsFrom(key string) []*ShardGroup {
	owner := p.ring.OwnerKey(key)
	out := make([]*ShardGroup, 0, len(p.order))
	out = append(out, p.groups[owner])
	for _, n := range p.order {
		if n != owner {
			out = append(out, p.groups[n])
		}
	}
	return out
}

func (p *Proxy) httpClient() *http.Client {
	if p.HTTP != nil {
		return p.HTTP
	}
	return http.DefaultClient
}

// clientFor returns a (cached) distrib client for one replica. Low
// retry budget: failover to the next replica beats retrying a dead
// one. Every blob fits one chunk, so each push is one request whose
// body the replica streams into its store: nothing past the proxy
// spools a blob in memory.
func (p *Proxy) clientFor(base string) *distrib.Client {
	p.clientMu.Lock()
	defer p.clientMu.Unlock()
	if c, ok := p.clients[base]; ok {
		return c
	}
	c := distrib.NewClient(base)
	c.HTTP = p.httpClient()
	c.Retries = 1
	c.ChunkSize = oci.MaxBlobSize
	if p.clients == nil {
		p.clients = make(map[string]*distrib.Client)
	}
	p.clients[base] = c
	return c
}

// withGroup runs fn against the group's current leader, promoting
// the next replica and retrying on failure until every replica has
// been tried once. fn must be idempotent (all fleet writes are:
// content-addressed blobs and same-bytes manifest PUTs).
func (p *Proxy) withGroup(g *ShardGroup, fn func(base string) error) error {
	leader := g.Leader()
	var err error
	for range g.Replicas() {
		err = fn(leader)
		if err == nil || distrib.StatusCode(err) == http.StatusNotFound {
			return err
		}
		leader = g.promoteFrom(leader)
	}
	return fmt.Errorf("fleet: shard %s has no usable replica: %w", g.Name(), err)
}

// Handler returns the proxy's HTTP surface: the /v2/ distribution
// API (the registry's front-end over this proxy as its Backend, so
// existing clients work unchanged), the routing table, and (when
// configured) the forwarded farm control plane.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v2/", registry.NewFrontend(p, p.uploads))
	mux.HandleFunc(TablePath, p.serveTable)
	if p.FarmBackend != "" {
		mux.HandleFunc("/farm/", p.forwardFarm)
	}
	return mux
}

// Uploads exposes the manager holding the proxy's upload sessions; its
// TTL bounds how long an abandoned one stays spooled in memory.
func (p *Proxy) Uploads() *distrib.UploadManager { return p.uploads }

// relay forwards a bodyless read (r's method and path, Range and
// Accept headers) to the groups in order, failing over inside each,
// and streams the first answer below 500 back verbatim: a shard's 404
// is the fleet's answer, not a reason to promote.
func (p *Proxy) relay(w http.ResponseWriter, r *http.Request, groups ...*ShardGroup) {
	var err error
	for _, g := range groups {
		err = p.withGroup(g, func(base string) error {
			req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.Path, nil)
			if err != nil {
				return err
			}
			for _, h := range []string{"Range", "Accept"} {
				if v := r.Header.Get(h); v != "" {
					req.Header.Set(h, v)
				}
			}
			resp, err := p.httpClient().Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode >= 500 {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				return fmt.Errorf("fleet: %s %s: status %s: %s", r.Method, req.URL, resp.Status, strings.TrimSpace(string(msg)))
			}
			for _, h := range []string{
				"Content-Type", "Content-Length", "Content-Range",
				"Docker-Content-Digest", "Accept-Ranges",
			} {
				if v := resp.Header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
			return nil
		})
		if err == nil {
			return
		}
	}
	http.Error(w, err.Error(), shardStatus(err))
}

// shardStatus maps a routed-request failure onto the client's status:
// a definitive 404 from the shard passes through, everything else is
// a 502 the client's retry logic treats as transient.
func shardStatus(err error) int {
	if distrib.StatusCode(err) == http.StatusNotFound {
		return http.StatusNotFound
	}
	return http.StatusBadGateway
}

// shardError marks a routed-write failure with its shardStatus.
func shardError(err error) error {
	if err == nil {
		return nil
	}
	return registry.WithStatus(shardStatus(err), err)
}

// --- blobs ---

// ServeBlob implements registry.Backend: the owning group answers,
// relayed through the proxy.
func (p *Proxy) ServeBlob(w http.ResponseWriter, r *http.Request, _ string, d digest.Digest) {
	p.relay(w, r, p.groupFor(d))
}

// CommitBlob implements registry.Backend: the blob is verified and
// pushed to its owning shard group (with failover) — whose leader
// acknowledges only after every follower holds it — inside the sink's
// Ingest, while the front-end's copy of the content is still there to
// be read.
func (p *Proxy) CommitBlob(r *http.Request, name string, _ digest.Digest, ingest func(distrib.BlobSink) error) error {
	return ingest(&relaySink{p: p, ctx: r.Context(), name: name})
}

// relaySink is the BlobSink CommitBlob hands the front-end and, once its
// Ingest has verified what it was given, the one-blob BlobSource the
// shard push reads that content from.
type relaySink struct {
	p    *Proxy
	ctx  context.Context
	name string

	d       digest.Digest
	content randomAccess
}

// randomAccess is content that can be read any number of times, by
// offset: a bytes.Reader, or what distrib.UploadManager.Commit hands a
// sink.
type randomAccess interface {
	io.ReaderAt
	Size() int64
}

// Ingest verifies r against want — a mismatch is the client's error,
// returned before any shard hears of the blob — and pushes it on. An
// upload session's spool is pushed from where it lies; a request body
// is read once, into one allocation of the size it declares.
func (s *relaySink) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	var ok bool
	if s.content, ok = r.(randomAccess); !ok {
		size, declared := oci.Sized(r)
		b, err := oci.ReadSized(nil, r, size, declared)
		if err != nil {
			return "", 0, fmt.Errorf("fleet: receiving blob: %w", err)
		}
		body := bytes.NewReader(b)
		s.content, r = body, body
	}
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", 0, fmt.Errorf("fleet: reading blob: %w", err)
	}
	if got := digest.FromHash(h); got != want {
		return "", 0, fmt.Errorf("fleet: digest mismatch: content is %s, want %s", got, want)
	}
	s.d = want
	err := s.p.withGroup(s.p.groupFor(want), func(base string) error {
		return s.p.clientFor(base).PushBlob(s.ctx, s.name, s, want)
	})
	if err != nil {
		return "", 0, shardError(err)
	}
	return want, s.content.Size(), nil
}

// Has implements distrib.BlobSource.
func (s *relaySink) Has(d digest.Digest) bool { return d == s.d }

// Digests implements distrib.BlobSource.
func (s *relaySink) Digests() []digest.Digest { return []digest.Digest{s.d} }

// Open implements distrib.BlobSource: every caller gets a reader of its
// own, so an attempt the transport has not quite let go of and the next
// one never share a position.
func (s *relaySink) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	if d != s.d {
		return nil, 0, fmt.Errorf("%w: %s", oci.ErrBlobNotFound, d)
	}
	size := s.content.Size()
	return io.NopCloser(io.NewSectionReader(s.content, 0, size)), size, nil
}

// --- manifests and tags ---

// HasBlob implements registry.Backend with the fleet-wide referential
// check: the owning shard group holds d.
func (p *Proxy) HasBlob(ctx context.Context, d digest.Digest) (bool, error) {
	var found bool
	err := p.withGroup(p.groupFor(d), func(base string) error {
		ok, err := p.clientFor(base).HasBlob(ctx, "fleet", d)
		found = ok
		return err
	})
	return found, shardError(err)
}

// CommitManifest implements registry.Backend: the manifest fans out to
// every shard group, so any shard can resolve tags and anchor its own
// GC roots. Acknowledged only once every group holds it.
func (p *Proxy) CommitManifest(r *http.Request, name, ref, mediaType string, _ digest.Digest, body []byte) error {
	for _, group := range p.order {
		err := p.withGroup(p.groups[group], func(base string) error {
			return p.clientFor(base).PushManifest(r.Context(), name, ref, mediaType, body)
		})
		if err != nil {
			return shardError(err)
		}
	}
	return nil
}

// ServeManifest implements registry.Backend. Manifests are fanned out
// to every shard, so the owner of "name:ref" is just the deterministic
// first stop; any healthy group can answer, and the first one's 404 is
// definitive.
func (p *Proxy) ServeManifest(w http.ResponseWriter, r *http.Request, name, ref string) {
	p.relay(w, r, p.groupsFrom(name+":"+ref)...)
}

// ServeTags implements registry.Backend; refs are fanned out, so the
// first healthy group answers for the fleet.
func (p *Proxy) ServeTags(w http.ResponseWriter, r *http.Request, name string) {
	p.relay(w, r, p.groupsFrom(name)...)
}

// --- farm forwarding ---

// forwardFarm relays /farm/v1 control-plane requests to the
// configured scheduler so workers and executors need only the proxy
// URL.
func (p *Proxy) forwardFarm(w http.ResponseWriter, r *http.Request) {
	url := strings.TrimRight(p.FarmBackend, "/") + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := p.httpClient().Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// --- routing table ---

// Table is the operator's view of the proxy's routing state: the ring
// membership (stable encoding) plus each shard's current leader.
type Table struct {
	Vnodes  int               `json:"vnodes"`
	Shards  []string          `json:"shards"`
	Leaders map[string]string `json:"leaders"`
}

// Table snapshots the proxy's current routing table.
func (p *Proxy) Table() Table {
	t := Table{Vnodes: p.ring.Vnodes(), Shards: p.ring.Shards(), Leaders: make(map[string]string, len(p.groups))}
	for name, g := range p.groups {
		t.Leaders[name] = g.Leader()
	}
	return t
}

func (p *Proxy) serveTable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p.Table())
}

// --- heartbeat watch ---

// Watch pings every shard leader at interval until ctx is done,
// promoting a group's next replica after DefaultHeartbeatMisses
// consecutive failures — failover for idle fleets, complementing the
// immediate request-path promotion in withGroup.
func (p *Proxy) Watch(ctx context.Context, interval time.Duration) {
	for {
		if err := ctxutil.Sleep(ctx, interval); err != nil {
			return
		}
		p.CheckLeaders(ctx, interval)
	}
}

// CheckLeaders performs one heartbeat round: each group's current
// leader is pinged (bounded by timeout) and promoted past after
// DefaultHeartbeatMisses consecutive losses.
func (p *Proxy) CheckLeaders(ctx context.Context, timeout time.Duration) {
	for _, name := range p.order {
		g := p.groups[name]
		leader := g.Leader()
		pctx, cancel := context.WithTimeout(ctx, timeout)
		err := p.clientFor(leader).Ping(pctx)
		cancel()
		if err == nil {
			g.noteBeat(leader)
			continue
		}
		if g.noteMiss(leader) >= DefaultHeartbeatMisses {
			g.promoteFrom(leader)
		}
	}
}
