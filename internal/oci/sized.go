package oci

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"hash"
	"io"
)

// MaxBlobSize bounds a blob read into memory.
const MaxBlobSize = 1 << 30

// unprovenAlloc is the most ReadSized allocates on a peer's declaration
// alone. One that says a gigabyte follows and sends ten bytes costs this
// much; a declared blob larger than it costs one copy of this much on top
// of its own allocation, once that many bytes have really arrived.
const unprovenAlloc = 8 << 20

// ErrBlobTooLarge reports a blob declared, or found, to be longer than
// MaxBlobSize. Asking again will not shrink it.
var ErrBlobTooLarge = errors.New("oci: blob exceeds 1 GiB")

// Sized returns how many bytes r says are left in it — the Len of a
// bytes.Reader, strings.Reader, bytes.Buffer, upload spool or SizedReader
// — or -1 when its type does not say, and whether that length is only
// somebody's declaration (a SizedReader's) rather than a fact.
func Sized(r io.Reader) (size int64, declared bool) {
	_, declared = r.(*SizedReader)
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len()), declared
	}
	return -1, false
}

// SizedReader is an io.LimitedReader that says how much it has left: the
// Len by which a sink sizes its allocation and an HTTP request its
// Content-Length. N is what somebody declared R to hold — a sink treats
// it as that, not as a fact (see ReadSized).
type SizedReader struct{ io.LimitedReader }

// NewSizedReader returns a reader of at most n bytes of r.
func NewSizedReader(r io.Reader, n int64) *SizedReader {
	return &SizedReader{io.LimitedReader{R: r, N: n}}
}

// Len returns the bytes left, as bytes.Reader's does.
func (s *SizedReader) Len() int { return int(s.N) }

// ReadSized reads r to its end, appending to buf, and returns the
// result: the one way a blob body becomes a slice. Who reads a blob
// knows its size before the first byte and allocates once, at that size;
// the slice returned is the caller's alone, to hand on without copying
// (DESIGN.md §2, "Blob bytes in transit"). size is how long the result
// is to be, or -1 when nobody said and the buffer has to grow as the
// bytes arrive.
//
// declared says where size comes from. False: it is a fact — the length
// of content in memory or on disk, a descriptor the manifest is bound to
// — and is allocated at once. True: it is the other end's word, a
// Content-Length, trusted with no more than unprovenAlloc until that
// many bytes have arrived. Either way a size beyond MaxBlobSize is
// ErrBlobTooLarge before anything is read, a body that ends short of
// size is io.ErrUnexpectedEOF, and one that runs past it is an error
// too; with these, and with a read error, come the bytes received so
// far, for the caller to resume from.
func ReadSized(buf []byte, r io.Reader, size int64, declared bool) ([]byte, error) {
	return readSized(buf, r, size, declared, nil)
}

// readSized is ReadSized writing every byte it appends to h, when h is
// not nil, in the read that delivers it (a Receiver's running hash).
func readSized(buf []byte, r io.Reader, size int64, declared bool, h hash.Hash) ([]byte, error) {
	if size > MaxBlobSize {
		return buf, ErrBlobTooLarge
	}
	limit := size
	if size < 0 {
		limit = MaxBlobSize
	}
	for {
		if int64(len(buf)) >= limit {
			// Everything allowed for is here: r has to be at its end.
			var probe [1]byte
			n, err := r.Read(probe[:])
			switch {
			case n > 0 && size < 0:
				return buf, ErrBlobTooLarge
			case n > 0:
				return buf, fmt.Errorf("oci: blob runs past its %d bytes", size)
			case err == io.EOF:
				return buf, nil
			case err != nil:
				return buf, err
			}
			continue
		}
		if len(buf) == cap(buf) {
			next := size
			switch {
			case size < 0:
				next = min(limit, int64(2*len(buf)+512))
			case declared && len(buf) < unprovenAlloc:
				next = min(size, unprovenAlloc)
			}
			buf = append(make([]byte, 0, next), buf...)
		}
		n, err := r.Read(buf[len(buf):min(int64(cap(buf)), limit)])
		if h != nil && n > 0 {
			h.Write(buf[len(buf) : len(buf)+n])
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if int64(len(buf)) < size {
				return buf, io.ErrUnexpectedEOF
			}
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Gunzip inflates the gzip stream data to at most bound bytes: the one
// inflate, for content whose compressed size says nothing of what it
// decodes to (deflate reaches about 1000:1). Callers pass MaxBlobSize.
// Output longer than bound is ErrBlobTooLarge, found by reading bound + 1
// bytes and no more.
func Gunzip(data []byte, bound int64) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer zr.Close() // only read: reading to the end checked the stream
	out, err := io.ReadAll(io.LimitReader(zr, bound+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > bound {
		return nil, fmt.Errorf("oci: gzip stream inflates past %d bytes: %w", bound, ErrBlobTooLarge)
	}
	return out, nil
}
