package oci

import (
	"strings"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
)

func archImage(t *testing.T, s *Store, arch string) Descriptor {
	t.Helper()
	fs := fsim.New()
	fs.WriteFile("/app/demo", []byte("binary for "+arch), 0o755)
	desc, err := WriteImage(s, ImageConfig{Architecture: arch, OS: "linux"}, []*fsim.FS{fs})
	if err != nil {
		t.Fatal(err)
	}
	desc.Platform = &Platform{Architecture: arch, OS: "linux"}
	return desc
}

// indexOf stores a manifest list of members. It checks nothing: a test
// may list what the store does not hold.
func indexOf(t *testing.T, s *Store, members ...Descriptor) Descriptor {
	t.Helper()
	desc, err := PutJSON(s, Index{SchemaVersion: 2, MediaType: MediaTypeIndex, Manifests: members}, MediaTypeIndex)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// TestWalk pins what every push, pull, copy and GC relies on: children
// before the document that lists them, each document once, a manifest's
// blobs handed over with it, and a document that is absent or does not
// decode ending the walk before anything further is visited.
func TestWalk(t *testing.T) {
	s := NewStore()
	common := fsim.New()
	common.WriteFile("/lib/common", []byte("one layer, two images"), 0o644)
	image := func(arch string) Descriptor {
		desc, err := WriteImage(s, ImageConfig{Architecture: arch, OS: "linux"}, []*fsim.FS{common})
		if err != nil {
			t.Fatal(err)
		}
		return desc
	}
	amd, arm := image("amd64"), image("arm64")
	layer := mustLoad(t, s, amd).Manifest.Layers[0].Digest
	if other := mustLoad(t, s, arm).Manifest.Layers[0].Digest; amd.Digest == arm.Digest || other != layer {
		t.Fatal("fixture: want two manifests over one layer blob")
	}
	ghost := Descriptor{MediaType: MediaTypeManifest, Digest: digest.FromString("held nowhere")}
	junk := Descriptor{MediaType: MediaTypeManifest, Digest: s.Put([]byte("not a document"))}
	list := indexOf(t, s, amd, arm)
	nested := indexOf(t, s, list, amd)
	cut := indexOf(t, s, amd, ghost, arm)
	garbled := indexOf(t, s, amd, junk, arm)

	for _, tc := range []struct {
		name    string
		root    Descriptor
		want    []Descriptor // visits, in order
		wantErr digest.Digest
	}{
		{name: "single manifest", root: amd, want: []Descriptor{amd}},
		{name: "index of two manifests sharing a layer", root: list, want: []Descriptor{amd, arm, list}},
		{name: "nested index naming a member twice", root: nested, want: []Descriptor{amd, arm, list, nested}},
		{name: "child missing from the source", root: cut, want: []Descriptor{amd}, wantErr: ghost.Digest},
		{name: "undecodable child", root: garbled, want: []Descriptor{amd}, wantErr: junk.Digest},
		{name: "undecodable root", root: junk, wantErr: junk.Digest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []digest.Digest
			layerSeen := 0
			err := Walk(tc.root, s.Get, func(desc Descriptor, doc []byte, blobs, children []Descriptor) error {
				got = append(got, desc.Digest)
				if want, _ := s.Get(desc.Digest); string(doc) != string(want) {
					t.Errorf("%s: visited with a document that is not the stored one", desc.Digest.Short())
				}
				if (len(blobs) > 0) == (len(children) > 0) {
					t.Errorf("%s: %d blobs and %d children", desc.Digest.Short(), len(blobs), len(children))
				}
				for _, b := range blobs {
					if b.Digest == layer {
						layerSeen++
					}
				}
				return nil
			})
			manifests := 0
			for i, d := range got {
				if i >= len(tc.want) || d != tc.want[i].Digest {
					t.Fatalf("visit %d is %s; want the order %v", i, d.Short(), tc.want)
				}
				if d == amd.Digest || d == arm.Digest {
					manifests++
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%d visits, want %d", len(got), len(tc.want))
			}
			if layerSeen != manifests {
				t.Errorf("the shared layer was handed over %d times for %d manifests", layerSeen, manifests)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), string(tc.wantErr))):
				t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
			}
		})
	}
}
