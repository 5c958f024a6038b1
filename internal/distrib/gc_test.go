package distrib

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

// buildImage writes nLayers random layer blobs, a config and a
// manifest into s, returning the manifest descriptor.
func buildImage(t *testing.T, s *oci.Store, rng *rand.Rand, nLayers int) oci.Descriptor {
	t.Helper()
	var layers []oci.Descriptor
	for i := 0; i < nLayers; i++ {
		content := make([]byte, 64+rng.Intn(256))
		rng.Read(content)
		d := s.Put(content)
		layers = append(layers, oci.Descriptor{
			MediaType: oci.MediaTypeLayer, Digest: d, Size: int64(len(content)),
		})
	}
	cfg, err := oci.PutJSON(s, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, oci.MediaTypeConfig)
	if err != nil {
		t.Fatal(err)
	}
	m := oci.Manifest{SchemaVersion: 2, MediaType: oci.MediaTypeManifest, Config: cfg, Layers: layers}
	desc, err := oci.PutJSON(s, m, oci.MediaTypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// reachableFrom collects every digest a root descriptor keeps alive.
func reachableFrom(t *testing.T, s *oci.Store, root oci.Descriptor) map[digest.Digest]bool {
	t.Helper()
	out := map[digest.Digest]bool{root.Digest: true}
	var idx oci.Index
	if err := oci.GetJSON(s, root.Digest, &idx); err == nil && len(idx.Manifests) > 0 {
		for _, child := range idx.Manifests {
			for d := range reachableFrom(t, s, child) {
				out[d] = true
			}
		}
		return out
	}
	m, err := oci.LoadManifest(s, root.Digest)
	if err != nil {
		t.Fatal(err)
	}
	out[m.Config.Digest] = true
	for _, l := range m.Layers {
		out[l.Digest] = true
	}
	return out
}

// TestGCProperty builds random forests of images, manifest lists and
// loose garbage blobs, tags a random subset, and checks the invariant:
// GC deletes every unreachable blob and never a reachable one.
func TestGCProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		s := oci.NewStore()

		// Some images, each with 1–5 layers; some grouped into
		// manifest lists; some loose garbage blobs.
		var images []oci.Descriptor
		for i := 0; i < 2+rng.Intn(5); i++ {
			images = append(images, buildImage(t, s, rng, 1+rng.Intn(5)))
		}
		var lists []oci.Descriptor
		if len(images) >= 2 && rng.Intn(2) == 0 {
			entries := []oci.Descriptor{images[0], images[1]}
			entries[0].Platform = &oci.Platform{Architecture: "amd64", OS: "linux"}
			entries[1].Platform = &oci.Platform{Architecture: "arm64", OS: "linux"}
			list, err := oci.PutJSON(s, oci.Index{SchemaVersion: 2, MediaType: oci.MediaTypeIndex, Manifests: entries}, oci.MediaTypeIndex)
			if err != nil {
				t.Fatal(err)
			}
			lists = append(lists, list)
		}
		for i := 0; i < rng.Intn(6); i++ {
			s.Put([]byte(fmt.Sprintf("garbage %d.%d", iter, i)))
		}

		// Tag a random subset of images and every list.
		var roots []oci.Descriptor
		for _, img := range images {
			if rng.Intn(2) == 0 {
				roots = append(roots, img)
			}
		}
		roots = append(roots, lists...)

		wantLive := map[digest.Digest]bool{}
		for _, root := range roots {
			for d := range reachableFrom(t, s, root) {
				wantLive[d] = true
			}
		}
		before := len(s.Digests())

		dropped, err := GC(s, roots, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := s.Digests()
		if len(after) != len(wantLive) {
			t.Fatalf("iter %d: %d blobs survive GC, want %d", iter, len(after), len(wantLive))
		}
		for _, d := range after {
			if !wantLive[d] {
				t.Fatalf("iter %d: unreachable blob %s survived", iter, d.Short())
			}
		}
		for d := range wantLive {
			if !s.Has(d) {
				t.Fatalf("iter %d: reachable blob %s was deleted", iter, d.Short())
			}
		}
		if dropped != before-len(wantLive) {
			t.Fatalf("iter %d: dropped = %d, want %d", iter, dropped, before-len(wantLive))
		}
	}
}

// TestGCMissingRootRefuses checks GC deletes nothing when a root's
// manifest blob is absent — a partially-visible tree must never cause
// collection.
func TestGCMissingRootRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := oci.NewStore()
	img := buildImage(t, s, rng, 2)
	ghost := oci.Descriptor{MediaType: oci.MediaTypeManifest, Digest: digest.FromString("missing")}
	before := len(s.Digests())
	if _, err := GC(s, []oci.Descriptor{img, ghost}, nil); err == nil {
		t.Fatal("GC with a missing root did not error")
	}
	if len(s.Digests()) != before {
		t.Error("GC deleted blobs despite erroring")
	}
}

// TestGCProtectPinsInFlightPush models a sweep racing a concurrent
// push: blobs already committed but not yet referenced by any manifest
// (the window between a blob PUT and the closing manifest PUT) are
// pinned by the protect callback and must survive, while equally
// unreachable garbage outside the pin set is still collected. Once the
// protection lapses — the grace window a registry gives fresh commits —
// a second sweep reclaims them.
func TestGCProtectPinsInFlightPush(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := oci.NewStore()
	tagged := buildImage(t, s, rng, 2)

	inflight := map[digest.Digest]bool{}
	for i := 0; i < 3; i++ {
		content := make([]byte, 128)
		rng.Read(content)
		inflight[s.Put(content)] = true
	}
	garbage := s.Put([]byte("stale orphan from long ago"))

	dropped, err := GC(s, []oci.Descriptor{tagged}, func(d digest.Digest) bool {
		return inflight[d]
	})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || s.Has(garbage) {
		t.Errorf("dropped = %d, stale garbage present = %v; want exactly the unpinned orphan gone", dropped, s.Has(garbage))
	}
	for d := range inflight {
		if !s.Has(d) {
			t.Errorf("in-flight blob %s collected despite protection", d.Short())
		}
	}

	// Grace expired: the same blobs are plain garbage now.
	dropped, err = GC(s, []oci.Descriptor{tagged}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != len(inflight) {
		t.Errorf("post-grace sweep dropped %d blobs, want %d", dropped, len(inflight))
	}
	for d := range inflight {
		if s.Has(d) {
			t.Errorf("blob %s survived the post-grace sweep", d.Short())
		}
	}
}

// TestGCOnDisk runs the collector against a DiskStore to cover the
// persistent Delete path.
func TestGCOnDisk(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := oci.NewStore()
	rng := rand.New(rand.NewSource(3))
	img := buildImage(t, mem, rng, 3)
	for _, d := range mem.Digests() {
		b, err := mem.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := disk.Ingest(bytes.NewReader(b), d); err != nil {
			t.Fatal(err)
		}
	}
	garbage, _, err := disk.Ingest(strings.NewReader("orphaned layer"), "")
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := GC(disk, []oci.Descriptor{img}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || disk.Has(garbage) {
		t.Errorf("dropped = %d, garbage present = %v", dropped, disk.Has(garbage))
	}
	if len(disk.Digests()) != len(mem.Digests()) {
		t.Errorf("disk holds %d blobs, want %d", len(disk.Digests()), len(mem.Digests()))
	}
}
