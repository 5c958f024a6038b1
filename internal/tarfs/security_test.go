package tarfs

import (
	"archive/tar"
	"bytes"
	"strings"
	"testing"
)

// rawTar builds a one-entry archive with an arbitrary (possibly
// malicious) entry name, bypassing Marshal's own path handling.
func rawTar(t *testing.T, name string) []byte {
	t.Helper()
	return rawTarOf(t, tar.Header{Name: name, Typeflag: tar.TypeReg})
}

// rawTarOf builds an archive of the given entries in the given order;
// every regular file holds "owned".
func rawTarOf(t *testing.T, hdrs ...tar.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, hdr := range hdrs {
		var data []byte
		if hdr.Typeflag == tar.TypeReg {
			data = []byte("owned")
		}
		hdr.Mode, hdr.Size = 0o644, int64(len(data))
		if err := tw.WriteHeader(&hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnmarshalRejectsEscapingNames is the Zip-Slip regression test: a
// crafted layer whose entry names climb out of the archive root or are
// absolute must be rejected, not silently re-rooted.
func TestUnmarshalRejectsEscapingNames(t *testing.T) {
	cases := []struct{ name, wantErr string }{
		{"../escape", "escapes"},
		{"a/../../escape", "escapes"},
		{"..", "escapes"},
		{"../../../../etc/cron.d/evil", "escapes"},
		{"/etc/passwd", "absolute"},
	}
	for _, c := range cases {
		_, err := Unmarshal(rawTar(t, c.name))
		if err == nil {
			t.Errorf("Unmarshal accepted malicious entry %q", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("entry %q: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestUnmarshalNormalizesInteriorDotDot: ".." that stays inside the
// root is legal tar and must normalize, not fail.
func TestUnmarshalNormalizesInteriorDotDot(t *testing.T) {
	fs, err := Unmarshal(rawTar(t, "a/../b"))
	if err != nil {
		t.Fatalf("Unmarshal rejected a contained interior ..: %v", err)
	}
	if !fs.Exists("/b") {
		t.Errorf("entry a/../b did not normalize to /b; have %v", fs.Paths())
	}
}

// TestUnmarshalRejectsNonTrees: a layer is outside input, and one whose
// entries contradict each other about what is a file and what is a
// directory must not decode into an FS that holds /a as a regular file
// and /a/b beside it — a state ReadDir rejects, Remove orphans and
// Marshal would re-emit.
func TestUnmarshalRejectsNonTrees(t *testing.T) {
	file := func(name string) tar.Header { return tar.Header{Name: name, Typeflag: tar.TypeReg} }
	dir := func(name string) tar.Header { return tar.Header{Name: name, Typeflag: tar.TypeDir} }
	link := func(name, to string) tar.Header {
		return tar.Header{Name: name, Typeflag: tar.TypeSymlink, Linkname: to}
	}
	cases := []struct {
		name    string
		entries []tar.Header
		wantErr string // "" = must decode
	}{
		{"file beneath a file", []tar.Header{file("a"), file("a/b")}, "beneath the regular file /a"},
		{"file deep beneath a file", []tar.Header{file("a"), file("a/b/c/d")}, "beneath the regular file /a"},
		{"symlink beneath a file", []tar.Header{file("a"), link("a/l", "x")}, "beneath the regular file /a"},
		{"directory beneath a file", []tar.Header{file("a"), dir("a/d/")}, "beneath the regular file /a"},
		{"file beneath a file beneath a symlink", []tar.Header{link("l", "x"), file("l/a"), file("l/a/b")}, "beneath the regular file /l/a"},
		{"file over a directory", []tar.Header{file("a/b"), file("a")}, "a dir earlier"},
		{"symlink over a directory", []tar.Header{dir("a/"), link("a", "x")}, "a dir earlier"},
		{"file over a symlink with entries beneath", []tar.Header{link("lib", "usr/lib"), file("lib/x.so"), file("lib")}, "a symlink earlier"},
		{"directory over a file", []tar.Header{file("a"), dir("a/")}, "a regular earlier"},
		{"file beneath a symlink", []tar.Header{link("lib", "usr/lib"), file("lib/x.so")}, ""},
		{"same file twice", []tar.Header{file("a"), file("a")}, ""},
		{"directory given twice", []tar.Header{dir("a/"), file("a/b"), dir("a/")}, ""},
	}
	for _, c := range cases {
		fs, err := Unmarshal(rawTarOf(t, c.entries...))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: decoded into %v", c.name, fs.Paths())
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}
