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
	tw := tar.NewWriter(&buf)
	err := fs.Walk(func(f *fsim.File) error {
		hdr := &tar.Header{
			Name:    strings.TrimPrefix(f.Path, "/"),
			Mode:    int64(f.Mode.Perm()),
			ModTime: epoch,
			Uname:   "root",
			Gname:   "root",
			Format:  tar.FormatPAX,
		}
		switch f.Type {
		case fsim.TypeDir:
			hdr.Typeflag = tar.TypeDir
			hdr.Name += "/"
		case fsim.TypeSymlink:
			hdr.Typeflag = tar.TypeSymlink
			hdr.Linkname = f.Target
		case fsim.TypeRegular:
			hdr.Typeflag = tar.TypeReg
			hdr.Size = f.Size()
		default:
			return fmt.Errorf("tarfs: unsupported file type %v at %s", f.Type, f.Path)
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("tarfs: writing header for %s: %w", f.Path, err)
		}
		if f.Type == fsim.TypeRegular {
			if _, err := tw.Write(f.Data); err != nil {
				return fmt.Errorf("tarfs: writing data for %s: %w", f.Path, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("tarfs: closing archive: %w", err)
	}
	return buf.Bytes(), nil
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
// root-escaping names are rejected.
func Unmarshal(data []byte) (*fsim.FS, error) {
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
		mode := hdr.FileInfo().Mode().Perm()
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := out.MkdirAll(p, mode); err != nil {
				return nil, fmt.Errorf("tarfs: %w", err)
			}
		case tar.TypeSymlink:
			out.Symlink(hdr.Linkname, p)
		case tar.TypeReg:
			data, err := io.ReadAll(tr)
			if err != nil {
				return nil, fmt.Errorf("tarfs: reading %s: %w", p, err)
			}
			out.WriteFile(p, data, mode)
		default:
			return nil, fmt.Errorf("tarfs: unsupported tar entry type %q at %s", hdr.Typeflag, p)
		}
	}
	return out, nil
}

// MarshalGzip encodes fs as a gzip-compressed deterministic tar archive,
// the +gzip layer media type.
func MarshalGzip(fs *fsim.FS) ([]byte, error) {
	raw, err := Marshal(fs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("tarfs: creating gzip writer: %w", err)
	}
	// Zero the gzip mtime for determinism.
	gz.ModTime = epoch
	if _, err := gz.Write(raw); err != nil {
		gz.Close()
		return nil, fmt.Errorf("tarfs: compressing: %w", err)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("tarfs: closing gzip stream: %w", err)
	}
	return buf.Bytes(), nil
}
