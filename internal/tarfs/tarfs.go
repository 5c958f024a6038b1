// Package tarfs serializes fsim file systems as deterministic tar archives,
// the byte format of OCI image layers.
//
// Marshal always produces identical bytes for identical file systems:
// entries are emitted in sorted path order, all timestamps are the Unix
// epoch, and ownership is root:root. This determinism is what makes layer
// digests (and therefore image digests) reproducible, a property the
// coMtainer cache layer relies on — re-running coMtainer-build on the same
// dist image must yield the same extended image.
package tarfs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"path"
	"strings"
	"time"

	"comtainer/internal/fsim"
)

// epoch is the fixed modification time used for every entry.
var epoch = time.Unix(0, 0).UTC()

// Marshal encodes fs as an uncompressed deterministic tar archive.
func Marshal(fs *fsim.FS) ([]byte, error) {
	var buf bytes.Buffer
	if err := MarshalTo(&buf, fs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// blockSize is the tar block: a header is one block and a file's data
// is padded to a whole number of them.
const blockSize = 512

// MarshalTo writes the archive Marshal returns to w — the one encoder,
// for callers that hash or compress the bytes instead of keeping them.
// A w that can Grow (a bytes.Buffer) is told the archive's size before
// the first byte is written, so it is allocated once: a header block
// per entry, data padded to whole blocks, two trailer blocks. The size is
// a hint: a name too long for a header block (over 255 bytes, or with a
// component over 100) adds a PAX record, and the buffer grows for it.
func MarshalTo(w io.Writer, fs *fsim.FS) error {
	type entry struct {
		hdr  *tar.Header
		data []byte
	}
	entries := make([]entry, 0, fs.Len())
	size := 2 * blockSize
	err := fs.Walk(func(f *fsim.File) error {
		e := entry{hdr: &tar.Header{
			Name:    strings.TrimPrefix(f.Path, "/"),
			Mode:    int64(f.Mode.Perm()),
			ModTime: epoch,
			Uname:   "root",
			Gname:   "root",
			Format:  tar.FormatPAX,
		}}
		switch f.Type {
		case fsim.TypeDir:
			e.hdr.Typeflag = tar.TypeDir
			e.hdr.Name += "/"
		case fsim.TypeSymlink:
			e.hdr.Typeflag = tar.TypeSymlink
			e.hdr.Linkname = f.Target
		case fsim.TypeRegular:
			e.hdr.Typeflag = tar.TypeReg
			e.hdr.Size = f.Size()
			e.data = f.Data
		default:
			return fmt.Errorf("tarfs: unsupported file type %v at %s", f.Type, f.Path)
		}
		entries = append(entries, e)
		size += blockSize + (len(e.data)+blockSize-1)/blockSize*blockSize
		return nil
	})
	if err != nil {
		return err
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(size)
	}
	tw := tar.NewWriter(w)
	defer tw.Close() // for the error paths; closing twice is harmless
	for _, e := range entries {
		if err := tw.WriteHeader(e.hdr); err != nil {
			return fmt.Errorf("tarfs: writing header for /%s: %w", e.hdr.Name, err)
		}
		if _, err := tw.Write(e.data); err != nil {
			return fmt.Errorf("tarfs: writing data for /%s: %w", e.hdr.Name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("tarfs: closing archive: %w", err)
	}
	return nil
}

// safeEntryName sanitizes a tar entry name into a rooted in-image path.
// Absolute names and names that climb out of the archive root with ".."
// are rejected rather than silently re-rooted: a layer carrying such
// entries is malformed at best and a path-traversal attempt at worst,
// and must never influence paths outside the image it describes.
func safeEntryName(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("tarfs: empty entry name")
	}
	if strings.HasPrefix(name, "/") {
		return "", fmt.Errorf("tarfs: absolute entry name %q", name)
	}
	cleaned := path.Clean(name)
	if cleaned == ".." || strings.HasPrefix(cleaned, "../") {
		return "", fmt.Errorf("tarfs: entry name %q escapes the archive root", name)
	}
	return fsim.Clean("/" + cleaned), nil
}

// Unmarshal decodes a tar archive into a file system. Whiteout entries are
// preserved verbatim as files so that fsim.Apply can interpret them. Entry
// names are validated by safeEntryName; archives with absolute or
// root-escaping names are rejected, and so is an entry that would leave
// the result no longer a tree: one beneath a path the archive already
// gave as a regular file, or one at a path it already gave as another
// type. A symlink among an entry's ancestors is legal in real layers
// (/lib -> usr/lib) and stays accepted.
//
// The result aliases data: each plain regular file's Data is the slice of
// the archive that holds its content, capacity clipped to its length so
// an append can never write into the archive. The caller must not modify
// data afterwards — the rule File.Data already lives by. A sparse entry's
// content is not one run of the archive and is copied out; one whose holes
// make it larger than the archive itself is rejected, so that a few header
// bytes cannot make the decoder allocate without bound.
func Unmarshal(data []byte) (*fsim.FS, error) {
	br := bytes.NewReader(data)
	tr := tar.NewReader(br)
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
		var typ fsim.FileType
		switch hdr.Typeflag {
		case tar.TypeReg:
			typ = fsim.TypeRegular
		case tar.TypeDir:
			typ = fsim.TypeDir
		case tar.TypeSymlink:
			typ = fsim.TypeSymlink
		default:
			return nil, fmt.Errorf("tarfs: unsupported tar entry type %q at %s", hdr.Typeflag, p)
		}
		// A path keeps the type it first got, so a regular file never
		// gains children, and the nearest ancestor the tree already holds
		// decides: it passed this check itself when it went in, so
		// nothing above it is a regular file either.
		if f, err := out.Stat(p); err == nil && f.Type != typ {
			return nil, fmt.Errorf("tarfs: entry %s is a %s, and a %s earlier in the archive", p, typ, f.Type)
		}
		for q := path.Dir(p); q != "/"; q = path.Dir(q) {
			f, err := out.Stat(q)
			if err != nil {
				continue // not there yet; becomes a directory below
			}
			if f.Type == fsim.TypeRegular {
				return nil, fmt.Errorf("tarfs: entry %s lies beneath the regular file %s", p, q)
			}
			break
		}
		mode := hdr.FileInfo().Mode().Perm()
		switch typ {
		case fsim.TypeDir:
			if err := out.MkdirAll(p, mode); err != nil {
				return nil, fmt.Errorf("tarfs: %w", err)
			}
		case fsim.TypeSymlink:
			out.Symlink(hdr.Linkname, p)
		case fsim.TypeRegular:
			// After Next the reader stands at the first byte of the
			// entry's content, so what it has left locates that content
			// in data.
			rest := int64(br.Len())
			var content []byte
			switch {
			case isSparse(hdr):
				if hdr.Size > int64(len(data)) {
					return nil, fmt.Errorf("tarfs: sparse entry %s expands to %d bytes, more than its whole archive", p, hdr.Size)
				}
				if content, err = io.ReadAll(tr); err != nil {
					return nil, fmt.Errorf("tarfs: reading %s: %w", p, err)
				}
			case hdr.Size > rest:
				return nil, fmt.Errorf("tarfs: reading %s: %w", p, io.ErrUnexpectedEOF)
			case hdr.Size > 0:
				off := int64(len(data)) - rest
				content = data[off : off+hdr.Size : off+hdr.Size]
			}
			out.Add(&fsim.File{Path: p, Type: fsim.TypeRegular, Mode: mode, Data: content})
		}
	}
	return out, nil
}

// isSparse reports whether hdr describes a PAX-format GNU sparse file,
// whose logical content is assembled from fragments of the archive. (The
// old GNU format's sparse entries have their own type flag, which
// Unmarshal does not support.)
func isSparse(hdr *tar.Header) bool {
	for k := range hdr.PAXRecords {
		if strings.HasPrefix(k, "GNU.sparse.") {
			return true
		}
	}
	return false
}

// MarshalGzip encodes fs as a gzip-compressed deterministic tar archive,
// the +gzip layer media type.
func MarshalGzip(fs *fsim.FS) ([]byte, error) {
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("tarfs: creating gzip writer: %w", err)
	}
	// Zero the gzip mtime for determinism.
	gz.ModTime = epoch
	if err := MarshalTo(gz, fs); err != nil {
		gz.Close()
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("tarfs: closing gzip stream: %w", err)
	}
	return buf.Bytes(), nil
}
