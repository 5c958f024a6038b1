package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
)

// mustFlatten loads tag from r and flattens it, failing t on an error.
func mustFlatten(t *testing.T, r *oci.Repository, tag string) *fsim.FS {
	t.Helper()
	img, err := r.LoadByTag(tag)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// copyFixture copies testdata/formats/name into a new temp directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir, src := t.TempDir(), filepath.Join("testdata", "formats", name)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(src, path)
		switch {
		case err != nil:
			return err
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, rel), b, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// openState is what an open of an image directory found: every tag and
// every blob, each blob read back through the verifying reader.
func openState(t *testing.T, dir string) (map[string]oci.Descriptor, []digest.Digest) {
	t.Helper()
	blobs, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := NewDiskTags(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tags.Close()
	all := tags.All()
	for key, desc := range all {
		if !blobs.Has(desc.Digest) {
			t.Errorf("tag %s names %s, which the store lacks", key, desc.Digest.Short())
		}
	}
	for _, d := range blobs.Digests() {
		if _, err := ReadBlob(blobs, d); err != nil {
			t.Errorf("blob %s: %v", d.Short(), err)
		}
	}
	files, err := os.ReadDir(filepath.Join(dir, "blobs", "sha256"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.IsDir() {
			t.Errorf("directory %s left in blobs/sha256", f.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "oci-layout")); err != nil {
		t.Errorf("no oci-layout marker after the open: %v", err)
	}
	return all, blobs.Digests()
}

// TestOpenShardedDataDir: a -data directory written before the store
// took the layout's shape (testdata/formats/sharded-data: blobs under
// blobs/sha256/<2 hex>/, tags of user/app in tags.log, an ingest temp a
// crash left) opens with every tag and every blob, its fan-out gone,
// and a second open finds the same. An open cut short after moving some
// blobs is finished by the next.
func TestOpenShardedDataDir(t *testing.T) {
	dir := copyFixture(t, "sharded-data")
	tags, blobs := openState(t, dir)
	if len(tags) != 2 || len(blobs) != 6 {
		t.Errorf("opened %d tags and %d blobs, want 2 and 6: %v", len(tags), len(blobs), tags)
	}
	if _, ok := tags["user/app:ubuntu:24.04"]; !ok {
		t.Errorf("tag user/app:ubuntu:24.04 lost: %v", tags)
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(left) != 0 {
		t.Errorf("the crash's temp survived the open: %v", left)
	}
	againTags, againBlobs := openState(t, dir)
	if !reflect.DeepEqual(againTags, tags) || !reflect.DeepEqual(againBlobs, blobs) {
		t.Errorf("second open = %v %v, want the first's %v %v", againTags, againBlobs, tags, blobs)
	}

	cut := copyFixture(t, "sharded-data")
	moved := "3de628d1bdf50247ebc59c0a5bc06502ee4a65e9cd083d6b87fbcc9d305eefc8"
	root := filepath.Join(cut, "blobs", "sha256")
	if err := os.Rename(filepath.Join(root, moved[:2], moved), filepath.Join(root, moved)); err != nil {
		t.Fatal(err)
	}
	// The open was cut after the move: its directory is empty.
	if err := os.Remove(filepath.Join(root, moved[:2])); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(root, moved[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if cutTags, cutBlobs := openState(t, cut); !reflect.DeepEqual(cutTags, tags) || !reflect.DeepEqual(cutBlobs, blobs) {
		t.Errorf("resumed open = %v %v, want %v %v", cutTags, cutBlobs, tags, blobs)
	}
}

// TestOpenIndexOnlyLayout: a layout written before the tag log
// (testdata/formats/index-only: the marker, index.json and flat blobs,
// plus the temp file of a save a crash cut short) loads with every tag
// index.json names, under LayoutRepository, and the load writes
// nothing. The first writer's open imports the tags into tags.log, a
// second open finds the same, and index.json stays a valid index naming
// each manifest by its tag.
func TestOpenIndexOnlyLayout(t *testing.T) {
	dir := copyFixture(t, "index-only")
	before := snapshot(t, dir)
	first, err := LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"app.dist", "ubuntu:24.04"}; !reflect.DeepEqual(first.Tags(), want) {
		t.Errorf("tags = %v, want %v", first.Tags(), want)
	}
	if !mustFlatten(t, first, "app.dist").Exists("/app/lulesh") {
		t.Error("app.dist lost its content")
	}
	if after := snapshot(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the load changed the directory:\n%v\nwant\n%v", after, before)
	}

	// A registry's open of the same directory imports and serves the same tags.
	tags, _ := openState(t, dir)
	for _, tag := range first.Tags() {
		want, _ := first.Resolve(tag)
		if got := tags[LayoutRepository+":"+tag]; got.Digest != want.Digest {
			t.Errorf("%s:%s = %s, want %s", LayoutRepository, tag, got.Digest.Short(), want.Digest.Short())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tags.log")); err != nil {
		t.Errorf("the import wrote no tag log: %v", err)
	}
	if again, _ := openState(t, dir); !reflect.DeepEqual(again, tags) {
		t.Errorf("second open = %v, want the first's %v", again, tags)
	}
	second, err := LoadLayout(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Tags(), first.Tags()) || !reflect.DeepEqual(second.Store.Digests(), first.Store.Digests()) {
		t.Errorf("load after the import = %v, want the first's %v", second.Tags(), first.Tags())
	}
	for _, tag := range first.Tags() {
		a, _ := first.Resolve(tag)
		b, _ := second.Resolve(tag)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: load after the import %+v, first %+v", tag, b, a)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var idx oci.Index
	err = json.Unmarshal(b, &idx)
	var names []string
	for _, m := range idx.Manifests {
		names = append(names, m.Annotations[oci.AnnotationRefName])
	}
	if err != nil || idx.SchemaVersion != 2 || !reflect.DeepEqual(names, first.Tags()) {
		t.Errorf("index.json after the import = %s (%v)", b, err)
	}
}

// snapshot maps each path under dir to its mode, size, modification
// time and content.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		var b []byte
		if !d.IsDir() {
			if b, err = os.ReadFile(path); err != nil {
				return err
			}
		}
		out[path] = fmt.Sprintf("%v %d %v %s", fi.Mode(), fi.Size(), fi.ModTime().UnixNano(), digest.FromBytes(b).Short())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// readOnly is a filesystem whose every mutating call fails.
type readOnly struct{ faultinject.FS }

var errReadOnly = errors.New("read-only filesystem")

func (readOnly) MkdirAll(string, fs.FileMode) error                  { return errReadOnly }
func (readOnly) CreateTemp(string, string) (faultinject.File, error) { return nil, errReadOnly }
func (readOnly) Rename(string, string) error                         { return errReadOnly }
func (readOnly) Remove(string) error                                 { return errReadOnly }
func (readOnly) RemoveAll(string) error                              { return errReadOnly }
func (readOnly) Chmod(string, fs.FileMode) error                     { return errReadOnly }
func (readOnly) Chtimes(string, time.Time, time.Time) error          { return errReadOnly }

func (r readOnly) OpenFile(name string, flag int, perm fs.FileMode) (faultinject.File, error) {
	if flag != os.O_RDONLY {
		return nil, errReadOnly
	}
	return r.FS.OpenFile(name, flag, perm)
}

// TestLoadLayoutWritesNothing: an image directory on a read-only mount,
// or owned by another user, loads, and the load leaves it as it was —
// for a layout whose tags are in tags.log, one with only index.json,
// and one a torn last log line ends. The load runs once on the real
// filesystem with the directories made 0555 (which binds a user that is
// not root), and once through a filesystem that refuses every write.
func TestLoadLayoutWritesNothing(t *testing.T) {
	logged := filepath.Join(t.TempDir(), "img.oci")
	repo := oci.NewRepository()
	desc, err := oci.PutJSON(repo.Store, oci.Manifest{SchemaVersion: 2, MediaType: oci.MediaTypeManifest}, oci.MediaTypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	repo.Tag("app", desc)
	if err := SaveLayout(repo, logged); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "img.oci")
	if err := SaveLayout(repo, torn); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(torn, "tags.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err == nil {
		_, err = f.WriteString(`{"key":"layout:half`)
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"tags.log": logged, "index.json": copyFixture(t, "index-only"), "torn tags.log": torn} {
		before := snapshot(t, dir)
		setDirModes(t, dir, 0o555)
		for how, fsys := range map[string]faultinject.FS{"0555": faultinject.OS(), "read-only fs": readOnly{faultinject.OS()}} {
			r, err := LoadLayoutFS(dir, fsys)
			if err != nil {
				t.Errorf("%s, %s: %v", name, how, err)
				continue
			}
			if len(r.Tags()) == 0 {
				t.Errorf("%s, %s: loaded no tag", name, how)
			}
		}
		setDirModes(t, dir, 0o755)
		if after := snapshot(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the load changed the directory:\n%v\nwant\n%v", name, after, before)
		}
	}
}

// setDirModes sets the mode of every directory under dir, dir included.
func setDirModes(t *testing.T, dir string, mode fs.FileMode) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			err = os.Chmod(path, mode)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error { return os.Chmod(path, 0o755) })
	})
}

// TestDirectoryHasOneWriter: while one open holds an image directory —
// a registry serving it — a second writer's open of it, a registry's or
// a save's, fails with ErrDirInUse and writes nothing, and a load still
// reads it. Once the first closes, a save goes through.
func TestDirectoryHasOneWriter(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img.oci")
	repo := oci.NewRepository()
	desc, err := oci.PutJSON(repo.Store, oci.Manifest{SchemaVersion: 2, MediaType: oci.MediaTypeManifest}, oci.MediaTypeManifest)
	if err != nil {
		t.Fatal(err)
	}
	repo.Tag("v1", desc)
	if err := SaveLayout(repo, dir); err != nil {
		t.Fatal(err)
	}
	serving, err := NewDiskTags(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer serving.Close()
	before := snapshot(t, dir)
	if again, err := NewDiskTags(dir); !errors.Is(err, ErrDirInUse) {
		if err == nil {
			again.Close()
		}
		t.Errorf("second open of a served directory: %v, want ErrDirInUse", err)
	}
	repo.Tag("v2", desc)
	if err := SaveLayout(repo, dir); !errors.Is(err, ErrDirInUse) || !strings.Contains(err.Error(), dir) {
		t.Errorf("save into a served directory: %v, want ErrDirInUse naming %s", err, dir)
	}
	if after := snapshot(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused opens changed the directory:\n%v\nwant\n%v", after, before)
	}
	if back, err := LoadLayout(dir); err != nil || !reflect.DeepEqual(back.Tags(), []string{"v1"}) {
		t.Errorf("load of a served directory: %v; want the tag v1 alone", describe(back, err))
	}
	if err := serving.Close(); err != nil {
		t.Fatal(err)
	}
	if err := SaveLayout(repo, dir); err != nil {
		t.Fatalf("save once the directory is free: %v", err)
	}
	if back, err := LoadLayout(dir); err != nil || !reflect.DeepEqual(back.Tags(), []string{"v1", "v2"}) {
		t.Errorf("load after the save: %v; want the tags v1 and v2", describe(back, err))
	}
}

// describe is what a load returned: its error, or the tags it loaded.
func describe(r *oci.Repository, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprint(r.Tags())
}
