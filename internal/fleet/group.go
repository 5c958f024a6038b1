package fleet

import (
	"fmt"
	"net/url"
	"sync"
)

// ShardGroup is one shard of the ring: an ordered replica set (base
// URLs) whose current leader serves the shard's traffic. Because a
// leader acknowledges a write only after every follower holds it
// durably, promotion is trivial — advance to the next replica; no
// acknowledged state can be lost. The proxy promotes on request
// failure (deterministic, immediate) and on heartbeat loss (Watch).
type ShardGroup struct {
	name string

	// replicas is written only by NewShardGroup, so it is read without
	// mu.
	replicas []string

	mu     sync.Mutex
	leader int
	misses int // consecutive failed heartbeats of the current leader
}

// NewShardGroup returns a group named name over the given replicas
// (registry base URLs); the first listed replica starts as leader.
func NewShardGroup(name string, replicas ...string) (*ShardGroup, error) {
	if name == "" {
		return nil, fmt.Errorf("fleet: shard group needs a name")
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fleet: shard group %s needs at least one replica", name)
	}
	for _, r := range replicas {
		if u, err := url.Parse(r); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("fleet: shard group %s: replica %q is not an http(s) URL with a host", name, r)
		}
	}
	return &ShardGroup{name: name, replicas: append([]string(nil), replicas...)}, nil
}

// Name returns the group's ring member name.
func (g *ShardGroup) Name() string { return g.name }

// Leader returns the current leader's base URL.
func (g *ShardGroup) Leader() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.replicas[g.leader]
}

// Replicas returns the replica base URLs in configured order.
func (g *ShardGroup) Replicas() []string {
	return append([]string(nil), g.replicas...)
}

// promoteFrom advances leadership past stale — but only if stale is
// still the leader, so concurrent failures against the same dead
// leader promote exactly once instead of leapfrogging healthy
// replicas. Returns the (possibly unchanged) current leader.
func (g *ShardGroup) promoteFrom(stale string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.replicas[g.leader] == stale && len(g.replicas) > 1 {
		g.leader = (g.leader + 1) % len(g.replicas)
		g.misses = 0
	}
	return g.replicas[g.leader]
}

// noteMiss records one failed heartbeat against leader and returns
// the consecutive-miss count (reset when leadership moved meanwhile).
func (g *ShardGroup) noteMiss(leader string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.replicas[g.leader] != leader {
		return 0
	}
	g.misses++
	return g.misses
}

// noteBeat clears the consecutive-miss counter for leader.
func (g *ShardGroup) noteBeat(leader string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.replicas[g.leader] == leader {
		g.misses = 0
	}
}
