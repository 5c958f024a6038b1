package oci

import (
	"comtainer/internal/digest"
	"strings"
	"testing"

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

func TestManifestListRoundTrip(t *testing.T) {
	s := NewStore()
	amd := archImage(t, s, "amd64")
	arm := archImage(t, s, "arm64")
	list, err := WriteManifestList(s, []Descriptor{amd, arm})
	if err != nil {
		t.Fatal(err)
	}
	if list.MediaType != MediaTypeIndex {
		t.Errorf("MediaType = %q", list.MediaType)
	}
	got, err := ResolvePlatform(s, list, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != arm.Digest {
		t.Error("resolved wrong platform manifest")
	}
	img, err := LoadImage(s, got)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := flat.ReadFile("/app/demo")
	if !strings.Contains(string(data), "arm64") {
		t.Errorf("content = %q", data)
	}
	if _, err := ResolvePlatform(s, list, "riscv64"); err == nil {
		t.Error("missing platform resolved")
	}
}

func TestManifestListValidation(t *testing.T) {
	s := NewStore()
	amd := archImage(t, s, "amd64")
	if _, err := WriteManifestList(s, nil); err == nil {
		t.Error("empty list accepted")
	}
	noPlat := amd
	noPlat.Platform = nil
	if _, err := WriteManifestList(s, []Descriptor{noPlat}); err == nil {
		t.Error("platform-less entry accepted")
	}
	if _, err := WriteManifestList(s, []Descriptor{amd, amd}); err == nil {
		t.Error("duplicate platform accepted")
	}
	ghost := amd
	ghost.Platform = &Platform{Architecture: "arm64", OS: "linux"}
	ghost.Digest = digest.Digest("sha256:" + strings.Repeat("0", 64))
	if _, err := WriteManifestList(s, []Descriptor{ghost}); err == nil {
		t.Error("dangling manifest accepted")
	}
}
