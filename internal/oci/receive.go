package oci

import (
	"crypto/sha256"
	"hash"
	"io"

	"comtainer/internal/digest"
)

// Receiver takes one blob in off a wire, over as many responses as it
// takes, into one buffer (ReadSized), and hashes every byte in the read
// that delivers it: the blob's digest is known when its last byte lands,
// and a transfer that resumes carries its hash along with its bytes.
//
// Only Receive puts bytes in and only Reset takes them out, so Digest is
// always the digest of exactly the bytes Bytes returns. Whoever holds
// those bytes reads them only. Handed to a sink, a Receiver is a reader
// of what it received: Store.Ingest keeps its buffer as it is, taking
// the hash made here as its entry check, and leaves the Receiver empty,
// so nothing done with it afterwards reaches the stored bytes; any other
// sink reads it like a bytes.Reader and hashes it itself. The zero value
// is an empty Receiver.
type Receiver struct {
	buf []byte
	h   hash.Hash
	off int // what a sink has read
}

// Receive appends r's bytes, as ReadSized(rc's bytes, r, size, declared)
// reads them, and hashes each as it lands. With an error, the bytes that
// did arrive stay, for a resume to append to.
func (rc *Receiver) Receive(r io.Reader, size int64, declared bool) error {
	if rc.h == nil {
		rc.h = sha256.New()
	}
	var err error
	rc.buf, err = readSized(rc.buf, r, size, declared, rc.h)
	return err
}

// Reset drops what arrived and restarts the hash, for bytes found wrong
// rather than incomplete. The buffer is kept for the bytes that come
// next, so nobody may still hold Bytes.
func (rc *Receiver) Reset() {
	rc.buf, rc.off = rc.buf[:0], 0
	if rc.h != nil {
		rc.h.Reset()
	}
}

// Digest returns the digest of every byte received.
func (rc *Receiver) Digest() digest.Digest {
	if rc.h == nil {
		return digest.FromBytes(nil)
	}
	return digest.FromHash(rc.h)
}

// Bytes returns the bytes received: read-only while the Receiver is still
// in use, and the caller's own once it is not.
func (rc *Receiver) Bytes() []byte { return rc.buf }

// Len returns the bytes left to read: every byte received, until a sink
// reads them. It is also what Sized reports.
func (rc *Receiver) Len() int { return len(rc.buf) - rc.off }

// Read reads the bytes received, as bytes.Reader does.
func (rc *Receiver) Read(p []byte) (int, error) {
	if rc.off >= len(rc.buf) {
		return 0, io.EOF
	}
	n := copy(p, rc.buf[rc.off:])
	rc.off += n
	return n, nil
}
