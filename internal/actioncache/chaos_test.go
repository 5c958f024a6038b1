package actioncache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// flakyCache is a Cache stub whose failure mode is toggled by tests:
// when failing, every call errors; otherwise it is an always-miss
// remote that accepts Puts. calls counts attempts that reached it.
type flakyCache struct {
	failing atomic.Bool
	calls   atomic.Int64
	stored  map[digest.Digest][]byte
}

func newFlakyCache() *flakyCache {
	return &flakyCache{stored: make(map[digest.Digest][]byte)}
}

func (f *flakyCache) Get(key digest.Digest) ([]byte, bool, error) {
	f.calls.Add(1)
	if f.failing.Load() {
		return nil, false, errors.New("remote unreachable")
	}
	v, ok := f.stored[key]
	return v, ok, nil
}

func (f *flakyCache) Put(key digest.Digest, val []byte) error {
	f.calls.Add(1)
	if f.failing.Load() {
		return errors.New("remote unreachable")
	}
	f.stored[key] = val
	return nil
}

func (f *flakyCache) Stats() Stats { return Stats{} }

// TestBreakerTripsAndFailsFast pins the trip behaviour: Threshold
// consecutive failures reach the inner cache, then the breaker opens
// and every further call is shed with ErrOpen without touching it.
func TestBreakerTripsAndFailsFast(t *testing.T) {
	remote := newFlakyCache()
	remote.failing.Store(true)
	b := NewBreaker(remote)
	b.Threshold = 3
	b.Cooldown = time.Hour
	now := time.Unix(1000, 0)
	b.Now = func() time.Time { return now }

	for i := 0; i < 10; i++ {
		_, _, err := b.Get(key("k"))
		if err == nil {
			t.Fatalf("call %d succeeded against a failing remote", i)
		}
		if i >= 3 && !errors.Is(err, ErrOpen) {
			t.Fatalf("call %d: err=%v, want ErrOpen after the breaker trips", i, err)
		}
	}
	if got := remote.calls.Load(); got != 3 {
		t.Fatalf("inner cache saw %d calls, want exactly Threshold=3", got)
	}
	if got := b.Shed(); got != 7 {
		t.Fatalf("breaker shed %d calls, want 7", got)
	}
	if b.State() != "open" {
		t.Fatalf("state=%s, want open", b.State())
	}
}

// TestBreakerHalfOpenRecovers drives the recovery path: after the
// cooldown one probe is admitted; a successful probe closes the
// breaker, a failed probe reopens it for another full cooldown.
func TestBreakerHalfOpenRecovers(t *testing.T) {
	remote := newFlakyCache()
	remote.failing.Store(true)
	b := NewBreaker(remote)
	b.Threshold = 2
	b.Cooldown = time.Minute
	now := time.Unix(1000, 0)
	b.Now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		b.Get(key("k"))
	}
	if b.State() != "open" {
		t.Fatalf("state=%s, want open after %d failures", b.State(), 2)
	}

	// Probe while the remote is still down: reopens for a new cooldown.
	now = now.Add(61 * time.Second)
	if _, _, err := b.Get(key("k")); err == nil || errors.Is(err, ErrOpen) {
		t.Fatalf("probe err=%v, want the remote's own error", err)
	}
	if b.State() != "open" {
		t.Fatalf("state=%s, want open again after failed probe", b.State())
	}
	if _, _, err := b.Get(key("k")); !errors.Is(err, ErrOpen) {
		t.Fatalf("err=%v, want ErrOpen during the fresh cooldown", err)
	}

	// Remote recovers; next probe closes the breaker.
	remote.failing.Store(false)
	now = now.Add(61 * time.Second)
	if _, _, err := b.Get(key("k")); err != nil {
		t.Fatalf("successful probe returned %v", err)
	}
	if b.State() != "closed" {
		t.Fatalf("state=%s, want closed after successful probe", b.State())
	}
	if err := b.Put(key("k"), []byte("v")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
}

// TestTieredDegradesToLocalWithBreaker is the acceptance check for
// graceful degradation: with the remote hard-down behind a breaker,
// a warm rebuild's worth of lookups must all succeed from local with
// zero errors surfaced, and the dead remote must be consulted only
// Threshold times — everything past the trip is a fast shed, which is
// what keeps warm-rebuild throughput within 2x of the no-remote
// baseline (see BenchmarkTieredFailingRemote).
func TestTieredDegradesToLocalWithBreaker(t *testing.T) {
	remote := newFlakyCache()
	remote.failing.Store(true)
	b := NewBreaker(remote)
	b.Threshold = 3
	b.Cooldown = time.Hour

	local, err := NewDiskCache(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(local, b)

	keys := make([]digest.Digest, 100)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("action-%d", i))
		if err := local.Put(keys[i], []byte(fmt.Sprintf("result-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok, err := tiered.Get(k)
		if err != nil {
			t.Fatalf("get %d surfaced an error during degraded operation: %v", i, err)
		}
		if !ok || string(v) != fmt.Sprintf("result-%d", i) {
			t.Fatalf("get %d: local hit lost (ok=%v v=%q)", i, ok, v)
		}
	}
	if got := remote.calls.Load(); got != 0 {
		t.Fatalf("local hits consulted the remote %d times", got)
	}

	// Local misses are where the dead remote would hurt: only the
	// first Threshold of them may reach it.
	for i := 0; i < 50; i++ {
		_, ok, err := tiered.Get(key(fmt.Sprintf("cold-%d", i)))
		if err != nil || ok {
			t.Fatalf("cold get %d: ok=%v err=%v, want clean miss", i, ok, err)
		}
	}
	if got := remote.calls.Load(); got != 3 {
		t.Fatalf("dead remote consulted %d times, want Threshold=3", got)
	}
	if s := tiered.Stats(); s.Errors == 0 {
		t.Fatal("degraded remote failures not counted in stats")
	}
}

// BenchmarkTieredFailingRemote against BenchmarkTieredNoRemote is the
// throughput half of the degradation criterion: a warm rebuild (every
// lookup a local hit) over a tripped breaker must stay within 2x of
// the local-only baseline. Warm hits never consult the remote tier,
// and once the breaker is open even local misses cost only a fast
// ErrOpen shed instead of a network timeout.
func BenchmarkTieredFailingRemote(b *testing.B) {
	remote := newFlakyCache()
	remote.failing.Store(true)
	br := NewBreaker(remote)
	br.Cooldown = time.Hour
	benchTieredGets(b, NewTiered(mustDiskCache(b), br))
}

func BenchmarkTieredNoRemote(b *testing.B) {
	benchTieredGets(b, NewTiered(mustDiskCache(b), nil))
}

func mustDiskCache(b *testing.B) *DiskCache {
	c, err := NewDiskCache(b.TempDir(), 1<<24)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchTieredGets(b *testing.B, c Cache) {
	keys := make([]digest.Digest, 64)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("bench-%d", i))
		if err := c.Put(keys[i], []byte("cached result")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("warm hit missed")
		}
	}
}

// TestDiskCacheCrashRestartVerify is the action-cache sibling of the
// blob-store chaos loop: drive Puts through a faulty filesystem until
// the power cut, reopen over the real one, and verify every Put that
// reported success is served back intact.
func TestDiskCacheCrashRestartVerify(t *testing.T) {
	cycles := int64(100)
	if testing.Short() {
		cycles = 10
	}
	for seed := int64(1); seed <= cycles; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			plan := faultinject.NewPlan(seed).
				Rate(faultinject.EIO, 0.02).
				Rate(faultinject.ShortWrite, 0.03).
				Rate(faultinject.PowerCut, 0.02)
			ffs := faultinject.NewFS(faultinject.OS(), plan)
			payloads := rand.New(rand.NewSource(seed))

			committed := make(map[digest.Digest][]byte)
			cache, err := NewDiskCacheFS(dir, 1<<24, ffs)
			if err == nil {
				for i := 0; i < 20 && !ffs.Dead(); i++ {
					val := make([]byte, 64+payloads.Intn(1024))
					payloads.Read(val)
					k := key(fmt.Sprintf("seed-%d-action-%d", seed, i))
					if err := cache.Put(k, val); err == nil {
						committed[k] = val
					}
				}
			}

			reopened, err := NewDiskCache(dir, 1<<24)
			if err != nil {
				t.Fatalf("reopening cache after crash: %v", err)
			}
			for k, val := range committed {
				got, ok, err := reopened.Get(k)
				if err != nil || !ok {
					t.Fatalf("committed entry %s lost after crash (ok=%v err=%v)", k.Short(), ok, err)
				}
				if !bytes.Equal(got, val) {
					t.Fatalf("committed entry %s content changed after crash", k.Short())
				}
			}
		})
	}
}
