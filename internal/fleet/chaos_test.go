package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/fleet"
	"comtainer/internal/oci"
)

// chaosCycles returns the seeded cycle count: the full 100-seed sweep
// normally, a subset under -short (CI's -race chaos job runs the
// subset; the full sweep is the release gate).
func chaosCycles() int64 {
	if testing.Short() {
		return 10
	}
	return 100
}

// TestFleetChaosLeaderKillMidPush is the fleet's core durability test:
// while a client streams blobs through the proxy (with injected
// faults on the proxy-to-shard wire), the leader of a seeded shard
// group is killed outright. Every push the client saw acknowledged —
// before, during, or after the kill — must survive on the promoted
// replica and read back byte-identical through the proxy; pushes
// after the kill must keep succeeding via failover.
func TestFleetChaosLeaderKillMidPush(t *testing.T) {
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			p, ts, shards := startFleet(t, 2, 2)
			plan := faultinject.NewPlan(seed).
				Rate(faultinject.HTTP500, 0.02).
				Rate(faultinject.Drop, 0.02)
			p.HTTP = &http.Client{Transport: faultinject.NewTransport(http.DefaultTransport, plan)}

			rng := rand.New(rand.NewSource(seed))
			victimShard := shards[int(seed)%len(shards)]
			killAfter := 3 + rng.Intn(5) // acks before the kill

			src := oci.NewStore()
			type blob struct {
				d       digest.Digest
				content []byte
			}
			var blobs []blob
			for i := 0; i < 12; i++ {
				content := make([]byte, 128+rng.Intn(4096))
				rng.Read(content)
				d, _, err := src.Ingest(bytes.NewReader(content), "")
				if err != nil {
					t.Fatal(err)
				}
				blobs = append(blobs, blob{d: d, content: content})
			}

			var mu sync.Mutex
			acked := make(map[digest.Digest][]byte)
			c := fastClient(ts.URL)

			// The pusher streams blobs one at a time, recording each
			// acknowledged digest. Individual failures during the kill
			// window are legitimate — the client saw them fail.
			pushed := make(chan int, len(blobs))
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, b := range blobs {
					if err := c.PushBlob(context.Background(), "chaos", src, b.d); err == nil {
						mu.Lock()
						acked[b.d] = b.content
						mu.Unlock()
					}
					pushed <- i
				}
			}()

			// Kill the victim group's current leader once enough pushes
			// are acknowledged, mid-stream.
			killed := false
			for range blobs {
				<-pushed
				mu.Lock()
				n := len(acked)
				mu.Unlock()
				if !killed && n >= killAfter {
					victim := victimShard.leaderReplica(t)
					victim.ts.CloseClientConnections()
					victim.ts.Close()
					// Membership change: the survivor stops replicating
					// to its dead peer and leads the group alone.
					for _, r := range victimShard.replicas {
						if r != victim {
							r.rep.SetFollowers()
						}
					}
					killed = true
				}
			}
			wg.Wait()
			if !killed {
				t.Fatalf("only %d pushes acknowledged; kill threshold %d never reached", len(acked), killAfter)
			}

			// Failover must keep accepting writes — including a manifest,
			// whose fan-out crosses the degraded group.
			after := buildTestImage(t, src, fmt.Sprintf("post-failover layer %d", seed))
			if err := c.PushImage(context.Background(), src, after, "chaos", "after"); err != nil {
				t.Fatalf("push after leader kill: %v", err)
			}

			// Zero acknowledged-write loss: every acked blob reads back
			// byte-identical through the proxy, and the ones owned by the
			// degraded group are durably on its surviving replica.
			ring := p.Ring()
			for d, content := range acked {
				dst := oci.NewStore()
				if err := c.FetchBlob(context.Background(), dst, "chaos", oci.Descriptor{Digest: d}); err != nil {
					t.Fatalf("acked blob %s unreadable after leader kill: %v", d.Short(), err)
				}
				got, err := distrib.ReadBlob(dst, d)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatalf("acked blob %s content changed after leader kill", d.Short())
				}
				if ring.Owner(d) == victimShard.group.Name() {
					if !victimShard.leaderReplica(t).srv.Blobs().Has(d) {
						t.Fatalf("acked blob %s missing from promoted replica", d.Short())
					}
				}
			}
			dst := oci.NewStore()
			got, err := c.PullImage(context.Background(), dst, "chaos", "after")
			if err != nil {
				t.Fatalf("pulling post-failover image: %v", err)
			}
			if got.Digest != after.Digest {
				t.Fatalf("post-failover image digest %s, want %s", got.Digest, after.Digest)
			}
		})
	}
}

// TestFleetChaosNoFalseAck kills a follower before a push: the leader
// cannot replicate, so the client must see the push fail AND the
// leader must not quietly keep the blob — an unreplicated commit that
// later short-circuited a retry would be a false acknowledgement.
func TestFleetChaosNoFalseAck(t *testing.T) {
	_, ts, shards := startFleet(t, 2)
	sh := shards[0]
	follower := sh.replicas[1]
	follower.ts.CloseClientConnections()
	follower.ts.Close()

	src := oci.NewStore()
	d, _, err := src.Ingest(bytes.NewReader([]byte("must not be acked")), "")
	if err != nil {
		t.Fatal(err)
	}
	c := fastClient(ts.URL)
	c.Retries = 1
	if err := c.PushBlob(context.Background(), "app", src, d); err == nil {
		t.Fatal("push succeeded with a dead follower; replication ack is broken")
	}
	if sh.replicas[0].srv.Blobs().Has(d) {
		t.Fatal("leader kept an unreplicated blob after failing the push")
	}
}

// TestFleetChaosProxyRestart proves the proxy holds no state that a
// restart loses: a second proxy instance over the same shard groups
// serves everything the first one ingested.
func TestFleetChaosProxyRestart(t *testing.T) {
	_, ts, shards := startFleet(t, 1, 1)
	src := oci.NewStore()
	desc := buildTestImage(t, src, manyPayloads(4)...)
	if err := fastClient(ts.URL).PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	groups := make([]*fleet.ShardGroup, 0, len(shards))
	for _, sh := range shards {
		g, err := fleet.NewShardGroup(sh.group.Name(), sh.replicas[0].ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	p2, err := fleet.NewProxy(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(p2.Handler())
	defer ts2.Close()
	dst := oci.NewStore()
	got, err := fastClient(ts2.URL).PullImage(context.Background(), dst, "app", "v1")
	if err != nil {
		t.Fatalf("pull through restarted proxy: %v", err)
	}
	if got.Digest != desc.Digest {
		t.Fatalf("restarted-proxy pull digest %s, want %s", got.Digest, desc.Digest)
	}
}

// TestFleetWatchPromotes drives the heartbeat path: after the leader
// dies silently (no request traffic), CheckLeaders promotes the
// follower once the miss threshold is reached — not before.
func TestFleetWatchPromotes(t *testing.T) {
	p, _, shards := startFleet(t, 2)
	sh := shards[0]
	leader := sh.leaderReplica(t)
	follower := sh.replicas[1]
	leader.ts.CloseClientConnections()
	leader.ts.Close()

	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	if got := sh.group.Leader(); got != leader.ts.URL {
		t.Fatalf("one missed heartbeat already promoted to %s", got)
	}
	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	if got := sh.group.Leader(); got != follower.ts.URL {
		t.Fatalf("leader after two misses = %s, want promoted follower %s", got, follower.ts.URL)
	}
	// A healthy leader is left alone.
	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	if got := sh.group.Leader(); got != follower.ts.URL {
		t.Fatalf("healthy promoted leader was demoted to %s", got)
	}
}
