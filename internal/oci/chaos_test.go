package oci

import (
	"fmt"
	"path/filepath"
	"testing"

	"comtainer/internal/faultinject"
	"comtainer/internal/fsim"
)

// TestSaveLayoutCrashConsistency pins the layout crash contract in two
// phases per seed, each a save interrupted by injected faults (EIO,
// short writes, a power cut freezing torn temp files in place).
//
// Into a fresh directory, the save must leave one of exactly two
// states — LoadLayout fails cleanly, or it yields a fully verified,
// loadable image. Nothing in between: index.json is committed last, so
// a reader never sees an index whose blobs have not all landed.
//
// Over an existing good layout (what comtainer-rebuild and -redirect
// do: load, work, save back), the directory must keep loading whatever
// the save did: it yields the old image or the new one, never an error.
func TestSaveLayoutCrashConsistency(t *testing.T) {
	cycles := int64(100)
	if testing.Short() {
		cycles = 10
	}
	for seed := int64(1); seed <= cycles; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			r := NewRepository()
			desc, err := WriteImage(r.Store, testConfig(), []*fsim.FS{baseLayer(), appLayer()})
			if err != nil {
				t.Fatal(err)
			}
			r.Tag("app.dist", desc)
			faulty := func() faultinject.FS {
				return faultinject.NewFS(faultinject.OS(), faultinject.NewPlan(seed).
					Rate(faultinject.EIO, 0.04).
					Rate(faultinject.ShortWrite, 0.05).
					Rate(faultinject.PowerCut, 0.03))
			}
			// verified loads the tag and checks the image end to end.
			verified := func(back *Repository) Descriptor {
				t.Helper()
				img, err := back.LoadByTag("app.dist")
				if err != nil {
					t.Fatalf("loadable layout with broken tag: %v", err)
				}
				flat, err := img.Flatten()
				if err != nil {
					t.Fatalf("loadable layout with unverifiable layers: %v", err)
				}
				if !flat.Exists("/app/lulesh") {
					t.Fatal("loadable layout lost content")
				}
				return img.Desc
			}

			fresh := filepath.Join(t.TempDir(), "img.oci")
			saveErr := r.SaveLayoutFS(fresh, faulty())
			back, loadErr := LoadLayout(fresh)
			if saveErr == nil && loadErr != nil {
				t.Fatalf("save succeeded but load failed: %v", loadErr)
			}
			if loadErr == nil {
				// With or without a reported save error, a layout that
				// loads must be complete.
				verified(back)
			}

			existing := filepath.Join(t.TempDir(), "img.oci")
			if err := r.SaveLayout(existing); err != nil {
				t.Fatal(err)
			}
			extra := fsim.New()
			extra.WriteFile("/app/rebuilt", []byte("ELF lulesh, rebuilt"), 0o755)
			rebuilt, err := AppendLayer(r.Store, desc, extra, "comtainer.rebuild", "")
			if err != nil {
				t.Fatal(err)
			}
			r.Tag("app.dist", rebuilt)
			saveErr = r.SaveLayoutFS(existing, faulty())
			back, err = LoadLayout(existing)
			if err != nil {
				t.Fatalf("a crashed re-save (%v) made a good layout unloadable: %v", saveErr, err)
			}
			switch got := verified(back); {
			case got.Digest == rebuilt.Digest:
			case got.Digest == desc.Digest && saveErr != nil:
			default:
				t.Fatalf("re-save (err %v) left image %s, want %s or, crashed, %s",
					saveErr, got.Digest.Short(), rebuilt.Digest.Short(), desc.Digest.Short())
			}
		})
	}
}
