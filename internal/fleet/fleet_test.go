// Functional tests of the registry fleet: sharded push/pull through
// the proxy, synchronous replication, the pull-through cache, read
// redirects, the routing-table endpoint, and GC racing pushes.
// External test package so the fleet is driven through the same
// distrib client the CLI uses.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// testReplica is one storage registry participating in a shard group.
type testReplica struct {
	srv *registry.Server
	log *fleet.WriteLog
	rep *fleet.Replicator
	ts  *httptest.Server
}

// testShard is a replica group plus its routing handle.
type testShard struct {
	group    *fleet.ShardGroup
	replicas []*testReplica
}

// leaderReplica returns the replica currently leading the group.
func (sh *testShard) leaderReplica(t *testing.T) *testReplica {
	t.Helper()
	lead := sh.group.Leader()
	for _, r := range sh.replicas {
		if r.ts.URL == lead {
			return r
		}
	}
	t.Fatalf("no replica serves leader URL %s", lead)
	return nil
}

// startShard launches n fleet-member registries wired as one replica
// group: every replica runs a symmetric replicator listing its peers,
// so whichever replica leads acknowledges a write only after the
// others hold it durably.
func startShard(t *testing.T, n int) *testShard {
	t.Helper()
	sh := &testShard{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := registry.NewServer()
		srv.TrustReferences = true
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		sh.replicas = append(sh.replicas, &testReplica{srv: srv, ts: ts})
		urls[i] = ts.URL
	}
	for i, r := range sh.replicas {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		r.log = &fleet.WriteLog{}
		r.rep = fleet.NewReplicator(r.srv.Blobs(), r.log, peers...)
		r.srv.SetCommitHook(r.rep)
	}
	g, err := fleet.NewShardGroup(urls[0], urls...)
	if err != nil {
		t.Fatal(err)
	}
	sh.group = g
	return sh
}

// startFleet builds a proxy over shard groups of the given replica
// counts and serves it.
func startFleet(t *testing.T, replicaCounts ...int) (*fleet.Proxy, *httptest.Server, []*testShard) {
	t.Helper()
	var shards []*testShard
	var groups []*fleet.ShardGroup
	for _, n := range replicaCounts {
		sh := startShard(t, n)
		shards = append(shards, sh)
		groups = append(groups, sh.group)
	}
	p, err := fleet.NewProxy(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts, shards
}

// fastClient returns a distrib client with short retry backoff.
func fastClient(base string) *distrib.Client {
	c := distrib.NewClient(base)
	c.RetryBackoff = time.Millisecond
	return c
}

// buildTestImage writes an image with the given layer payloads.
func buildTestImage(t *testing.T, s *oci.Store, payloads ...string) oci.Descriptor {
	t.Helper()
	var layers []*fsim.FS
	for i, p := range payloads {
		l := fsim.New()
		l.WriteFile(fmt.Sprintf("/data/l%d", i), []byte(p), 0o644)
		layers = append(layers, l)
	}
	desc, err := oci.WriteImage(s, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, layers)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// manyPayloads returns n distinct layer payloads.
func manyPayloads(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("layer payload %d with some bulk to shard around", i)
	}
	return out
}

// TestFleetPushPullSharded pushes an image through the proxy and
// checks the blobs land on their ring-assigned shards, the manifest
// and tag fan out to every shard, and a pull through the proxy
// reassembles the image bit-for-bit.
func TestFleetPushPullSharded(t *testing.T) {
	p, ts, shards := startFleet(t, 1, 1, 1)
	src := oci.NewStore()
	desc := buildTestImage(t, src, manyPayloads(8)...)
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "team/app", "v1"); err != nil {
		t.Fatal(err)
	}

	byName := make(map[string]*testShard)
	for _, sh := range shards {
		byName[sh.group.Name()] = sh
	}
	populated := 0
	for _, sh := range shards {
		if len(sh.replicas[0].srv.Blobs().Digests()) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("blobs landed on %d shard(s); expected the ring to spread them", populated)
	}
	for _, d := range src.Digests() {
		owner := byName[p.Ring().Owner(d)]
		if !owner.replicas[0].srv.Blobs().Has(d) {
			t.Fatalf("blob %s missing from its owning shard %s", d.Short(), p.Ring().Owner(d))
		}
	}
	// Manifests and tags fan out to every shard: each can anchor its
	// own GC roots and resolve the tag.
	for i, sh := range shards {
		if !sh.replicas[0].srv.Blobs().Has(desc.Digest) {
			t.Fatalf("shard %d lacks the fanned-out manifest", i)
		}
		tags, err := fastClient(sh.replicas[0].ts.URL).ListTags(context.Background(), "team/app")
		if err != nil || len(tags) != 1 || tags[0] != "v1" {
			t.Fatalf("shard %d tags = %v, %v; want [v1]", i, tags, err)
		}
	}

	tags, err := c.ListTags(context.Background(), "team/app")
	if err != nil || len(tags) != 1 || tags[0] != "v1" {
		t.Fatalf("proxy tags = %v, %v; want [v1]", tags, err)
	}
	dst := oci.NewStore()
	got, err := c.PullImage(context.Background(), dst, "team/app", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != desc.Digest {
		t.Fatalf("pulled digest %s, want %s", got.Digest, desc.Digest)
	}
}

// TestFleetUnknownManifestIs404 asks the proxy for a manifest no shard
// holds: the shard's 404 is the fleet's answer, and it is no reason to
// move any group's leadership — a write racing a spurious promotion
// would land on a follower.
func TestFleetUnknownManifestIs404(t *testing.T) {
	_, ts, shards := startFleet(t, 2, 3)
	var leaders []string
	for _, sh := range shards {
		leaders = append(leaders, sh.group.Leader())
	}
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		req, err := http.NewRequest(method, ts.URL+"/v2/app/manifests/never-pushed", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s unknown manifest: %s, want 404", method, resp.Status)
		}
	}
	for i, sh := range shards {
		if got := sh.group.Leader(); got != leaders[i] {
			t.Errorf("group of %d replicas: a 404 moved leadership from %s to %s", len(sh.replicas), leaders[i], got)
		}
	}
}

// TestFleetRemoteCacheMiss reads a key nobody stored from an action
// cache kept behind the proxy: a clean miss, not an error that feeds
// the cache's circuit breaker.
func TestFleetRemoteCacheMiss(t *testing.T) {
	_, ts, _ := startFleet(t, 2, 2)
	cache := actioncache.NewRemoteCacheClient(fastClient(ts.URL), "")
	val, ok, err := cache.Get(digest.FromString("an action nobody has run"))
	if val != nil || ok || err != nil {
		t.Errorf("remote cache miss through the proxy = (%q, %v, %v), want (nil, false, nil)", val, ok, err)
	}
	if st := cache.Stats(); st.RemoteMisses != 1 || st.Errors != 0 {
		t.Errorf("remote cache counted %d misses and %d errors, want 1 and 0", st.RemoteMisses, st.Errors)
	}
}

// TestFleetReplicationAck checks the durability contract: once the
// proxy acknowledges a push, every replica of the owning shard holds
// every blob, and the leader's write log recorded the commits.
func TestFleetReplicationAck(t *testing.T) {
	_, ts, shards := startFleet(t, 2)
	src := oci.NewStore()
	desc := buildTestImage(t, src, manyPayloads(4)...)
	if err := fastClient(ts.URL).PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	for _, d := range src.Digests() {
		for i, r := range sh.replicas {
			if !r.srv.Blobs().Has(d) {
				t.Fatalf("replica %d missing blob %s after acknowledged push", i, d.Short())
			}
		}
	}
	if len(sh.leaderReplica(t).log.Entries(0)) == 0 {
		t.Fatal("leader write log is empty after acknowledged pushes")
	}
}

// TestFleetPullThroughCache pulls the same image twice: the second
// pull must be served from the proxy's cache without touching the
// shards' blob endpoints.
func TestFleetPullThroughCache(t *testing.T) {
	p, ts, shards := startFleet(t, 1)
	if err := p.SetCache(oci.NewStore(), 0); err != nil {
		t.Fatal(err)
	}
	src := oci.NewStore()
	desc := buildTestImage(t, src, manyPayloads(3)...)
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	// The push itself warms the cache, so even the first pull should
	// avoid the shard.
	counter := &blobGetCounter{}
	shards[0].replicas[0].ts.Config.Handler = counter.wrap(shards[0].replicas[0].srv.Handler())

	for i := 0; i < 2; i++ {
		dst := oci.NewStore()
		got, err := c.PullImage(context.Background(), dst, "app", "v1")
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != desc.Digest {
			t.Fatalf("pull %d digest %s, want %s", i, got.Digest, desc.Digest)
		}
	}
	if n := counter.gets.Load(); n != 0 {
		t.Fatalf("cached pulls still issued %d blob GETs to the shard", n)
	}
	if hits, _ := p.CacheStats(); hits == 0 {
		t.Fatal("cache recorded no hits across two pulls")
	}
}

type blobGetCounter struct{ gets atomic.Int64 }

func (c *blobGetCounter) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && containsBlobPath(r.URL.Path) {
			c.gets.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
}

func containsBlobPath(p string) bool {
	return strings.Contains(p, "/blobs/") && !strings.Contains(p, "/uploads")
}

// TestFleetCacheBounded pushes more data than the cache capacity and
// checks eviction keeps the cache within bounds while the fleet stays
// authoritative for everything.
func TestFleetCacheBounded(t *testing.T) {
	p, ts, _ := startFleet(t, 1)
	cache := oci.NewStore()
	const capBytes = 3 * 1024
	if err := p.SetCache(cache, capBytes); err != nil {
		t.Fatal(err)
	}
	src := oci.NewStore()
	var digests []digest.Digest
	for i := 0; i < 6; i++ {
		payload := make([]byte, 1024)
		for j := range payload {
			payload[j] = byte(i)
		}
		d, _, err := src.Ingest(bytes.NewReader(payload), "")
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	c := fastClient(ts.URL)
	for _, d := range digests {
		if err := c.PushBlob(context.Background(), "app", src, d); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, d := range cache.Digests() {
		rc, size, err := cache.Open(d)
		if err != nil {
			t.Fatal(err)
		}
		rc.Close()
		total += size
	}
	if total > capBytes {
		t.Fatalf("cache holds %d bytes, capacity %d", total, capBytes)
	}
	// Evicted blobs are still served (pull-through from the shard).
	for _, d := range digests {
		dst := oci.NewStore()
		if err := c.FetchBlob(context.Background(), dst, "app", d); err != nil {
			t.Fatalf("fetching %s after eviction: %v", d.Short(), err)
		}
	}
}

// probedStore runs probe inside every distrib.Store method.
type probedStore struct {
	distrib.Store
	probe func()
}

func (s probedStore) Has(d digest.Digest) bool { s.probe(); return s.Store.Has(d) }
func (s probedStore) Open(d digest.Digest) (io.ReadCloser, int64, error) {
	s.probe()
	return s.Store.Open(d)
}
func (s probedStore) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	s.probe()
	return s.Store.Ingest(r, want)
}
func (s probedStore) Delete(d digest.Digest) error { s.probe(); return s.Store.Delete(d) }
func (s probedStore) Digests() []digest.Digest     { s.probe(); return s.Store.Digests() }

// TestFleetCacheStoreCalledUnlocked: the proxy never calls into its
// cache store — disk I/O in production — while holding the lock that
// guards the cache index. Every store method here re-enters the proxy
// through a path that takes that lock (HasBlob of an uncached digest is
// an index lookup, then a shard HEAD); were the lock held around the
// store call, the re-entry would never return. Adoption, push warming,
// eviction, pull-through and cache hits all pass through.
func TestFleetCacheStoreCalledUnlocked(t *testing.T) {
	p, ts, _ := startFleet(t, 1)
	absent := digest.FromBytes([]byte("never pushed"))
	var probes atomic.Int64
	probe := func() {
		probes.Add(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = p.HasBlob(context.Background(), absent)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("cache store called with the cache lock held: re-entering the proxy blocked")
		}
	}
	// Six 1 KiB blobs on the fleet; the cache adopts two and has room
	// for three, so pushes evict and fetches pull through and evict.
	src, seeded := oci.NewStore(), oci.NewStore()
	c := fastClient(ts.URL)
	var digests []digest.Digest
	for i := 0; i < 6; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1024)
		d := src.Put(payload)
		digests = append(digests, d)
		if i < 2 {
			if err := c.PushBlob(context.Background(), "app", src, d); err != nil {
				t.Fatal(err)
			}
			seeded.Put(payload)
		}
	}
	if err := p.SetCache(probedStore{seeded, probe}, 3*1024); err != nil {
		t.Fatal(err)
	}
	for _, d := range digests[2:] {
		if err := c.PushBlob(context.Background(), "app", src, d); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range append(digests, digests...) {
		if err := c.FetchBlob(context.Background(), oci.NewStore(), "app", d); err != nil {
			t.Fatalf("fetching %s: %v", d.Short(), err)
		}
	}
	if probes.Load() == 0 {
		t.Fatal("the cache store was never called")
	}
	if got := seeded.TotalSize(); got > 3*1024 {
		t.Fatalf("cache holds %d bytes, capacity %d", got, 3*1024)
	}
}

// TestFleetRedirectReads checks -redirect-reads: an uncached blob GET
// answers with a 307 pointing at the owning shard's leader, and a
// redirect-following client still gets the bytes.
func TestFleetRedirectReads(t *testing.T) {
	p, ts, shards := startFleet(t, 1)
	p.RedirectReads = true
	src := oci.NewStore()
	desc := buildTestImage(t, src, "one layer")
	c := fastClient(ts.URL)
	if err := c.PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, d := range src.Digests() {
		resp, err := noFollow.Get(ts.URL + "/v2/app/blobs/" + string(d))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("blob GET status %d, want 307", resp.StatusCode)
		}
		want := shards[0].group.Leader() + "/v2/app/blobs/" + string(d)
		if loc := resp.Header.Get("Location"); loc != want {
			t.Fatalf("redirect location %s, want %s", loc, want)
		}
	}
	dst := oci.NewStore()
	got, err := c.PullImage(context.Background(), dst, "app", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != desc.Digest {
		t.Fatalf("redirected pull digest %s, want %s", got.Digest, desc.Digest)
	}
}

// TestFleetTableEndpoint: GET /fleet/v1/table is the operator's view of
// the routing state — ring membership plus every group's current
// leader, which moves when a follower is promoted.
func TestFleetTableEndpoint(t *testing.T) {
	p, ts, shards := startFleet(t, 2, 1)
	fetch := func() fleet.Table {
		t.Helper()
		resp, err := http.Get(ts.URL + fleet.TablePath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var table fleet.Table
		if err := json.NewDecoder(resp.Body).Decode(&table); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("GET %s: status %s, decode error %v", fleet.TablePath, resp.Status, err)
		}
		return table
	}
	check := func(table fleet.Table) {
		t.Helper()
		if table.Vnodes != p.Ring().Vnodes() || !reflect.DeepEqual(table.Shards, p.Ring().Shards()) {
			t.Fatalf("table ring = %d vnodes over %v, proxy routes with %d over %v",
				table.Vnodes, table.Shards, p.Ring().Vnodes(), p.Ring().Shards())
		}
		for _, sh := range shards {
			if got, want := table.Leaders[sh.group.Name()], sh.group.Leader(); got != want {
				t.Fatalf("table leader of %s = %q, want %q", sh.group.Name(), got, want)
			}
		}
	}
	check(fetch())

	// Kill the two-replica group's leader; two missed heartbeats later
	// the table names the promoted follower.
	old := shards[0].group.Leader()
	shards[0].replicas[0].ts.Close()
	for i := 0; i < fleet.DefaultHeartbeatMisses; i++ {
		p.CheckLeaders(context.Background(), time.Second)
	}
	after := fetch()
	check(after)
	if after.Leaders[shards[0].group.Name()] == old {
		t.Fatalf("table still names dead leader %s", old)
	}

	resp, err := http.Post(ts.URL+fleet.TablePath, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST %s: status %s, want 405", fleet.TablePath, resp.Status)
	}
}

// TestGCRacesConcurrentPushThroughProxy hammers every shard with GC
// while images are pushed through the proxy. The commit-grace pin
// must keep blobs alive between their shard commit and the manifest
// fan-out that makes them referenced, so every push that succeeded
// pulls back intact.
func TestGCRacesConcurrentPushThroughProxy(t *testing.T) {
	_, ts, shards := startFleet(t, 1, 1)
	c := fastClient(ts.URL)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, sh := range shards {
				if _, err := sh.replicas[0].srv.GC(); err != nil {
					t.Errorf("gc: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond) // yield so pushes interleave with sweeps
		}
	}()

	const images = 8
	descs := make([]oci.Descriptor, images)
	src := oci.NewStore()
	for i := 0; i < images; i++ {
		descs[i] = buildTestImage(t, src, fmt.Sprintf("racing layer %d", i), fmt.Sprintf("second racing layer %d", i))
		if err := c.PushImage(context.Background(), src, descs[i], "app", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("push v%d during gc race: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	// One more sweep each with everything referenced, then verify.
	for _, sh := range shards {
		if _, err := sh.replicas[0].srv.GC(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < images; i++ {
		dst := oci.NewStore()
		got, err := c.PullImage(context.Background(), dst, "app", fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatalf("pulling v%d after gc race: %v", i, err)
		}
		if got.Digest != descs[i].Digest {
			t.Fatalf("v%d digest %s, want %s", i, got.Digest, descs[i].Digest)
		}
	}
}
