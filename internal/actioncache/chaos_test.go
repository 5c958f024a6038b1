package actioncache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

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
