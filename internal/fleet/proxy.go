package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"comtainer/internal/cachekit"
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
		uploads: distrib.NewUploadManager(),
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
// one. Each push is one request whose body the replica streams into
// its store: nothing past the proxy spools a blob in memory.
func (p *Proxy) clientFor(base string) *distrib.Client {
	p.clientMu.Lock()
	defer p.clientMu.Unlock()
	if c, ok := p.clients[base]; ok {
		return c
	}
	c := distrib.NewClient(base)
	c.HTTP = p.httpClient()
	c.Retries = 1
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
// Ingest, while the content, a session's spool or a request body still
// arriving, is there to be read.
func (p *Proxy) CommitBlob(r *http.Request, name string, _ digest.Digest, ingest func(distrib.BlobSink) error) error {
	return ingest(&relaySink{p: p, ctx: r.Context(), name: name})
}

// relaySink is the BlobSink CommitBlob hands the front-end. It holds no
// blob of its own: whatever the content, a request body or an upload
// session's spool, it goes on to the shard as it is read.
type relaySink struct {
	p    *Proxy
	ctx  context.Context
	name string
}

// Ingest pushes r to the leader of the group owning want as the bytes
// are read, with no HEAD first — the client has just probed through the
// proxy, or spooled a session — through a relayBody, which holds the
// content's last block back until the whole of it has hashed to want; a
// mismatch is the client's error. Failover follows how far the content
// got. A replica that failed before it took a byte is promoted past and
// the next one gets the same stream. One that failed after is promoted
// past too: a session's spool, which can be read again, goes to the
// next one from byte 0, and for a request body the client's 503 sends
// the blob again. Content that is not delivered, or not want, is no
// shard's failure and promotes nothing: before a request body's failed
// relay promotes, the rest of the body is read for its verdict, since a
// client's cut can end the leader's request before the proxy's own
// read of the body has reported it.
func (s *relaySink) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	size, _ := oci.Sized(r)
	if size > oci.MaxBlobSize {
		return "", 0, fmt.Errorf("fleet: blob of %d bytes: %w", size, oci.ErrBlobTooLarge)
	}
	spool, again := r.(io.ReaderAt) // a session's spool, whose Len is its size
	b := &relayBody{r: r, want: want, h: sha256.New()}
	for i := range b.bufs {
		b.bufs[i] = relayBufs.Get().(*[32 << 10]byte)
		defer relayBufs.Put(b.bufs[i])
	}
	if b.fill(); b.err != nil {
		return "", 0, b.err // content of one block is judged before any shard hears of it
	}
	g := s.p.groupFor(want)
	leader := g.Leader()
	var err error
	for range g.Replicas() {
		pr, pw := io.Pipe()
		err = cachekit.Parallel(2, 0, func(i int) error {
			if i == 0 {
				return s.p.clientFor(leader).PushStream(s.ctx, s.name, want, pr, size, nil)
			}
			b.feed(pw)
			return nil
		})
		switch {
		case b.err != nil:
			return "", 0, b.err
		case err == nil:
			return want, b.sent, nil
		case s.ctx.Err() != nil: // the client's request ended, not the shard
			return "", 0, fmt.Errorf("fleet: receiving blob: %w", context.Cause(s.ctx))
		case b.sent > 0 && !again:
			if b.drain(); b.err != nil {
				return "", 0, b.err
			}
			g.promoteFrom(leader)
			return "", 0, registry.WithStatus(http.StatusServiceUnavailable, fmt.Errorf("fleet: shard %s failed mid-blob: %w", g.Name(), err))
		case b.sent > 0:
			b.h.Reset()
			*b = relayBody{r: io.NewSectionReader(spool, 0, size), want: want, h: b.h, bufs: b.bufs}
		}
		leader = g.promoteFrom(leader)
	}
	return "", 0, shardError(fmt.Errorf("fleet: shard %s has no usable replica: %w", g.Name(), err))
}

// relayBody is a blob's content on its way to a shard, in blocks of the
// relayBufs pool: each block is hashed as it is read and passed on once
// the next has been read, so the block that ends the content goes only
// when the whole of it hashes to want. Content that does not ends in an
// error instead, and the request carrying it fails short of its end:
// no store downstream keeps it. What one request did not take stays for
// the next.
type relayBody struct {
	r    io.Reader
	want digest.Digest
	h    hash.Hash
	bufs [2]*[32 << 10]byte
	next int    // the buffer the next block is read into
	held []byte // the block last read, not passed on
	out  []byte // passed on, not yet taken

	sent  int64 // bytes taken by a request
	ended bool  // r ended, hashing to want: held may go too
	err   error // the body's own failure: not delivered, or not want
}

// fill reads the body's next block, while out is empty, and passes the
// block held before it on.
func (b *relayBody) fill() {
	buf := b.bufs[b.next][:]
	n := 0
	var err error
	for n < len(buf) && err == nil {
		var m int
		m, err = b.r.Read(buf[n:])
		n += m
	}
	b.h.Write(buf[:n])
	if n > 0 {
		b.out, b.held = b.held, buf[:n]
		b.next ^= 1
	}
	switch {
	case err == io.EOF:
		if got := digest.FromHash(b.h); got != b.want {
			b.err = fmt.Errorf("fleet: digest mismatch: content is %s, want %s", got, b.want)
		}
		b.ended = b.err == nil
	case err != nil:
		b.err = fmt.Errorf("fleet: receiving blob: %w", err)
	}
}

// feed writes the body to w until it has all gone or w takes no more,
// and ends w with the body's verdict.
func (b *relayBody) feed(w *io.PipeWriter) {
	for b.err == nil {
		switch {
		case len(b.out) > 0:
			n, err := w.Write(b.out)
			b.out, b.sent = b.out[n:], b.sent+int64(n)
			if err != nil {
				return // the request is over
			}
		case b.ended && b.held == nil:
			w.Close()
			return
		case b.ended:
			b.out, b.held = b.held, nil
		default:
			b.fill()
		}
	}
	w.CloseWithError(b.err)
}

// drain reads and hashes the rest of the body, passing nothing on, until
// it ends or fails.
func (b *relayBody) drain() {
	for b.err == nil && !b.ended {
		b.out = nil
		b.fill()
	}
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
// every shard group at once, so any shard can resolve tags and anchor
// its own GC roots. Acknowledged only once every group holds it.
func (p *Proxy) CommitManifest(r *http.Request, name, ref, mediaType string, _ digest.Digest, body []byte) error {
	return shardError(cachekit.Parallel(len(p.order), 0, func(i int) error {
		return p.withGroup(p.groups[p.order[i]], func(base string) error {
			return p.clientFor(base).PushManifest(r.Context(), name, ref, mediaType, body)
		})
	}))
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
