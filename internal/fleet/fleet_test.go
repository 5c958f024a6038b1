// Functional tests of the registry fleet: sharded push/pull through
// the proxy, synchronous replication, the routing-table endpoint, and
// GC racing pushes.
// External test package so the fleet is driven through the same
// distrib client the CLI uses.
package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

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
