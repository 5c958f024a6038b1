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
	"io/fs"
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
//
// Headers are read in place (see reader): an archive Marshal wrote
// reaches archive/tar only if an entry needed a PAX record, and any archive
// gets archive/tar's verdict.
func Unmarshal(data []byte) (*fsim.FS, error) {
	r := reader{data: data}
	out := fsim.New()
	for {
		hdr, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tarfs: reading archive: %w", err)
		}
		p, err := safeEntryName(hdr.name)
		if err != nil {
			return nil, err
		}
		var typ fsim.FileType
		switch hdr.typeflag {
		case tar.TypeReg:
			typ = fsim.TypeRegular
		case tar.TypeDir:
			typ = fsim.TypeDir
		case tar.TypeSymlink:
			typ = fsim.TypeSymlink
		default:
			return nil, fmt.Errorf("tarfs: unsupported tar entry type %q at %s", hdr.typeflag, p)
		}
		// A path keeps the type it first got, so a regular file never
		// gains children, and the nearest ancestor the tree already holds
		// decides: it passed this check itself when it went in, so
		// nothing above it is a regular file either.
		if f, ok := lookup(out, p); ok && f.Type != typ {
			return nil, fmt.Errorf("tarfs: entry %s is a %s, and a %s earlier in the archive", p, typ, f.Type)
		}
		for q := path.Dir(p); q != "/"; q = path.Dir(q) {
			f, ok := lookup(out, q)
			if !ok {
				continue // not there yet; becomes a directory below
			}
			if f.Type == fsim.TypeRegular {
				return nil, fmt.Errorf("tarfs: entry %s lies beneath the regular file %s", p, q)
			}
			break
		}
		switch typ {
		case fsim.TypeDir:
			if err := out.MkdirAll(p, hdr.mode); err != nil {
				return nil, fmt.Errorf("tarfs: %w", err)
			}
		case fsim.TypeSymlink:
			out.Symlink(hdr.linkname, p)
		case fsim.TypeRegular:
			var content []byte
			switch {
			case hdr.sparse:
				if hdr.size > int64(len(data)) {
					return nil, fmt.Errorf("tarfs: sparse entry %s expands to %d bytes, more than its whole archive", p, hdr.size)
				}
				if content, err = io.ReadAll(r.tr); err != nil {
					return nil, fmt.Errorf("tarfs: reading %s: %w", p, err)
				}
			case hdr.size > int64(len(data)-hdr.at):
				return nil, fmt.Errorf("tarfs: reading %s: %w", p, io.ErrUnexpectedEOF)
			case hdr.size > 0:
				end := hdr.at + int(hdr.size)
				content = data[hdr.at:end:end]
			}
			out.Add(&fsim.File{Path: p, Type: fsim.TypeRegular, Mode: hdr.mode, Data: content})
		}
	}
	return out, nil
}

// lookup is tree.Stat without the error value a miss would build, which
// most entries of an archive are.
func lookup(tree *fsim.FS, p string) (*fsim.File, bool) {
	if !tree.Exists(p) {
		return nil, false
	}
	f, err := tree.Stat(p)
	return f, err == nil
}

// header is what Unmarshal takes from an entry's header, whichever of
// reader's two sources read it.
type header struct {
	name, linkname string
	typeflag       byte
	mode           fs.FileMode // permission bits only
	size           int64
	at             int  // offset in the archive of the entry's first content byte
	sparse         bool // content is assembled by archive/tar, not one run at at
}

// reader yields an archive's entries. It reads each header block in place
// while the block is plain ustar (plainHeader), as Marshal writes every
// entry that needs no PAX record; at the first block that is not, it
// hands the rest of the archive to archive/tar. archive/tar carries
// nothing from one entry to the next but its position, so from there on
// every header and every verdict is the one it would have given reading
// from the start, and an entry is never parsed twice.
type reader struct {
	data []byte
	off  int           // the next header block, while tr is nil
	tr   *tar.Reader   // reads data[off:] once a block was not plain
	rest *bytes.Reader // what tr has left of data
}

// endOfArchive is the two zero blocks that end a tar archive.
var endOfArchive [2 * blockSize]byte

// next returns the next entry's header, or io.EOF after the last.
func (r *reader) next() (header, error) {
	if r.tr == nil {
		// Nothing left, or a last padding cut short, ends the archive,
		// as it does for archive/tar.
		if r.off >= len(r.data) {
			return header{}, io.EOF
		}
		blk := r.data[r.off:]
		if len(blk) >= len(endOfArchive) && bytes.Equal(blk[:len(endOfArchive)], endOfArchive[:]) {
			return header{}, io.EOF
		}
		if h, ok := plainHeader(blk); ok {
			h.at = r.off + blockSize
			// A regular file's content, padded to whole blocks; past the
			// end of the archive only when Unmarshal rejects the entry.
			r.off = h.at + int((h.size+blockSize-1)/blockSize*blockSize)
			return h, nil
		}
		r.rest = bytes.NewReader(blk)
		r.tr = tar.NewReader(r.rest)
	}
	hdr, err := r.tr.Next()
	if err != nil {
		return header{}, err
	}
	// After Next the reader stands at the first byte of the entry's
	// content, so what it has left locates that content in data.
	return header{
		name:     hdr.Name,
		linkname: hdr.Linkname,
		typeflag: hdr.Typeflag,
		mode:     hdr.FileInfo().Mode().Perm(),
		size:     hdr.Size,
		at:       len(r.data) - r.rest.Len(),
		sparse:   isSparse(hdr),
	}, nil
}

// plainHeader decodes blk's first block if it is a plain POSIX ustar
// header, to what archive/tar would decode it to:
//   - magic "ustar\0", version "00", and no star trailer;
//   - a stored checksum equal to the unsigned sum of the block;
//   - a regular file, a directory or a symlink, the last two of size 0;
//   - every numeric field archive/tar parses in plain octal, padded with
//     NULs and spaces at either end;
//   - the name is prefix + "/" + name when the prefix is not empty.
//
// Anything else — a PAX or GNU extension, a V7 or GNU magic, a base-256
// number, a signed-only checksum, a zero block, a short block — is not
// plain, and ok is false.
func plainHeader(blk []byte) (h header, ok bool) {
	if len(blk) < blockSize {
		return header{}, false
	}
	blk = blk[:blockSize]
	if string(blk[257:265]) != "ustar\x0000" || string(blk[508:512]) == "tar\x00" {
		return header{}, false
	}
	h.typeflag = blk[156]
	switch h.typeflag {
	case tar.TypeReg, tar.TypeDir, tar.TypeSymlink:
	default:
		return header{}, false
	}
	sum, ok := octal(blk[148:156])
	if !ok || sum != checksum(blk) {
		return header{}, false
	}
	mode, ok := octal(blk[100:108])
	if !ok {
		return header{}, false
	}
	if h.size, ok = octal(blk[124:136]); !ok || h.typeflag != tar.TypeReg && h.size != 0 {
		return header{}, false
	}
	// uid, gid, mtime, devmajor, devminor: parsed by archive/tar, unused here.
	for _, field := range [...][2]int{{108, 116}, {116, 124}, {136, 148}, {329, 337}, {337, 345}} {
		if _, ok := octal(blk[field[0]:field[1]]); !ok {
			return header{}, false
		}
	}
	h.mode = fs.FileMode(mode).Perm()
	// Text fields end at their first NUL.
	name, _, _ := bytes.Cut(blk[:100], []byte{0})
	if prefix, _, _ := bytes.Cut(blk[345:500], []byte{0}); len(prefix) > 0 {
		h.name = string(prefix) + "/" + string(name)
	} else {
		h.name = string(name)
	}
	if h.typeflag == tar.TypeSymlink {
		link, _, _ := bytes.Cut(blk[157:257], []byte{0})
		h.linkname = string(link)
	}
	return h, true
}

// octal parses a numeric header field the way archive/tar does when it
// is plain octal: NULs and spaces trimmed from both ends, then octal
// digits only, none at all being 0. ok is false for anything else.
func octal(field []byte) (n int64, ok bool) {
	for _, c := range bytes.Trim(field, " \x00") {
		if c < '0' || c > '7' {
			return 0, false
		}
		n = n<<3 | int64(c-'0')
	}
	return n, true
}

// checksum is a header block's POSIX checksum: the unsigned sum of its
// bytes, the checksum field itself counted as eight spaces.
func checksum(blk []byte) int64 {
	var sum int64
	for i, c := range blk {
		if i >= 148 && i < 156 {
			c = ' '
		}
		sum += int64(c)
	}
	return sum
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
