package tarfs

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"path"
	"testing"
	"unsafe"

	"comtainer/internal/fsim"
)

// unmarshalCopying is the decoder Unmarshal replaced: it reads every
// regular file's content out of the archive into a buffer of its own and
// has WriteFile copy that. It stays here as the oracle the slicing decoder
// is fuzzed against, with the same rules — checked the long way round,
// every ancestor of every entry — about what may sit beneath what, and
// about how far a sparse entry may expand.
func unmarshalCopying(data []byte) (*fsim.FS, error) {
	fileTypes := map[byte]fsim.FileType{tar.TypeReg: fsim.TypeRegular, tar.TypeDir: fsim.TypeDir, tar.TypeSymlink: fsim.TypeSymlink}
	tr := tar.NewReader(bytes.NewReader(data))
	out := fsim.New()
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tarfs: reading archive: %w", err)
		}
		p, err := safeEntryName(hdr.Name)
		if err != nil {
			return nil, err
		}
		for q := path.Dir(p); q != "/"; q = path.Dir(q) {
			if f, err := out.Stat(q); err == nil && f.Type == fsim.TypeRegular {
				return nil, fmt.Errorf("tarfs: entry %s lies beneath the regular file %s", p, q)
			}
		}
		if f, err := out.Stat(p); err == nil {
			if typ, ok := fileTypes[hdr.Typeflag]; ok && typ != f.Type {
				return nil, fmt.Errorf("tarfs: entry %s changes the type of an earlier one", p)
			}
		}
		mode := hdr.FileInfo().Mode().Perm()
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := out.MkdirAll(p, mode); err != nil {
				return nil, fmt.Errorf("tarfs: %w", err)
			}
		case tar.TypeSymlink:
			out.Symlink(hdr.Linkname, p)
		case tar.TypeReg:
			if isSparse(hdr) && hdr.Size > int64(len(data)) {
				return nil, fmt.Errorf("tarfs: sparse entry %s expands to %d bytes, more than its whole archive", p, hdr.Size)
			}
			content, err := io.ReadAll(tr)
			if err != nil {
				return nil, fmt.Errorf("tarfs: reading %s: %w", p, err)
			}
			out.WriteFile(p, content, mode)
		default:
			return nil, fmt.Errorf("tarfs: unsupported tar entry type %q at %s", hdr.Typeflag, p)
		}
	}
	return out, nil
}

// FuzzUnmarshal holds the slicing decoder to the copying one on every
// input — same verdict, same tree, and a tree it is — and to its aliasing
// rules: the archive comes back unwritten, spare capacity behind it
// included, and no File.Data offers capacity an append could use to write
// into it. The seed corpus in testdata/fuzz/FuzzUnmarshal runs under
// plain `go test`.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		archive, err := Marshal(randomFS(seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(archive)
	}
	f.Fuzz(func(t *testing.T, archive []byte) {
		want, wantErr := unmarshalCopying(bytes.Clone(archive))

		// The decoder's input has poisoned spare capacity behind it.
		const spare = 64
		buf := make([]byte, len(archive), len(archive)+spare)
		copy(buf, archive)
		poison := bytes.Repeat([]byte{0xA5}, spare)
		copy(buf[len(buf):cap(buf)], poison)

		got, err := Unmarshal(buf)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Unmarshal error = %v, copying decoder's = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !got.Equal(want) {
			t.Fatalf("trees differ:\n got %v\nwant %v", got.Paths(), want.Paths())
		}
		err = got.Walk(func(file *fsim.File) error {
			if w, _ := want.Stat(file.Path); w.Mode != file.Mode {
				return fmt.Errorf("%s: mode %v, want %v", file.Path, file.Mode, w.Mode)
			}
			for q := path.Dir(file.Path); q != "/"; q = path.Dir(q) {
				if a, err := got.Stat(q); err != nil || a.Type == fsim.TypeRegular {
					return fmt.Errorf("%s: not a tree: ancestor %s is missing or a regular file", file.Path, q)
				}
			}
			if cap(file.Data) != len(file.Data) && aliases(file.Data, buf) {
				return fmt.Errorf("%s: Data aliases the archive with capacity %d beyond its length %d", file.Path, cap(file.Data), len(file.Data))
			}
			// Whatever the capacity says, an append must land elsewhere.
			_ = append(file.Data, 0xEE)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, archive) || !bytes.Equal(buf[len(buf):cap(buf)], poison) {
			t.Fatal("decoding, or appending to a decoded file, wrote into the archive")
		}
	})
}

// aliases reports whether b's backing array lies inside whole's.
func aliases(b, whole []byte) bool {
	if cap(b) == 0 || cap(whole) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(whole)))
	return p >= lo && p < lo+uintptr(cap(whole))
}
