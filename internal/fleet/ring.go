// Package fleet scales the registry horizontally. A consistent-hash
// ring partitions the blob namespace across N shards; each shard is
// an ordered replica group whose leader synchronously replicates
// every commit to its followers (a write is acknowledged only once
// the followers hold it durably), so killing a leader loses no
// acknowledged write; and a stateless front-end proxy speaks the OCI
// distribution API — routing blob traffic to the owning shard and
// fanning manifest/ref operations out to every shard, keeping no blobs
// of its own.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"comtainer/internal/digest"
)

// DefaultVnodes is the virtual-node count per shard: enough points
// that load spreads within a few percent of even, cheap enough that
// ring construction stays trivial.
const DefaultVnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard string
}

// Ring maps blob digests to shard names by consistent hashing:
// each shard contributes vnodes points on a 64-bit circle, and a
// digest belongs to the first point at or clockwise of its own hash.
// Adding or removing one shard therefore moves only ~1/N of the
// keyspace. Immutable after construction; safe for concurrent use.
type Ring struct {
	vnodes int
	shards []string // sorted member names
	points []ringPoint
}

// NewRing builds a ring over the given shard names (order
// irrelevant — membership is canonicalized by sorting) with vnodes
// virtual nodes per shard (DefaultVnodes when <= 0).
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	for i, s := range sorted {
		if s == "" {
			return nil, fmt.Errorf("fleet: empty shard name")
		}
		if i > 0 && sorted[i-1] == s {
			return nil, fmt.Errorf("fleet: duplicate shard %q", s)
		}
	}
	r := &Ring{vnodes: vnodes, shards: sorted}
	for _, s := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, i), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

func pointHash(shard string, i int) uint64 {
	sum := sha256.Sum256([]byte(shard + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the shard owning blob d. A content digest is already
// uniformly distributed, so its leading 64 bits are the lookup key
// directly: routing is a pure function of content address and ring
// membership, computable by any peer holding the same encoding.
func (r *Ring) Owner(d digest.Digest) string {
	hex := d.Hex()
	if len(hex) >= 16 {
		if h, err := strconv.ParseUint(hex[:16], 16, 64); err == nil {
			return r.ownerHash(h)
		}
	}
	return r.ownerHash(keyHash(string(d)))
}

// OwnerKey returns the shard owning an arbitrary key (e.g. a
// "name:tag" reference) — used to spread non-digest lookups.
func (r *Ring) OwnerKey(key string) string { return r.ownerHash(keyHash(key)) }

func (r *Ring) ownerHash(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Shards returns the sorted member names.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Vnodes returns the virtual-node count per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// ringWire is the stable membership encoding: the sorted shard list
// plus the vnode count. Identical membership always encodes to
// identical bytes, so peers compare encodings to detect divergence.
type ringWire struct {
	Vnodes int      `json:"vnodes"`
	Shards []string `json:"shards"`
}

// Encode serializes the ring's membership canonically.
func (r *Ring) Encode() []byte {
	b, err := json.Marshal(ringWire{Vnodes: r.vnodes, Shards: r.shards})
	if err != nil {
		panic("fleet: encoding ring: " + err.Error())
	}
	return b
}

// DecodeRing reconstructs a ring from Encode output. The same
// membership bytes always produce a ring with identical routing.
func DecodeRing(b []byte) (*Ring, error) {
	var w ringWire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("fleet: decoding ring: %w", err)
	}
	return NewRing(w.Shards, w.Vnodes)
}
