// Package digest implements content addressing for OCI blobs.
//
// A Digest is the algorithm-prefixed lowercase hex encoding of a hash of
// blob content, e.g. "sha256:6c3c624b58db...". Only sha256 is supported,
// matching what the OCI image spec requires of all implementations.
package digest

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strings"
)

// Algorithm identifies a supported hash algorithm.
type Algorithm string

// SHA256 is the only algorithm this implementation emits.
const SHA256 Algorithm = "sha256"

// Digest is an algorithm-qualified content hash such as "sha256:abcd...".
// The zero value is invalid.
type Digest string

// ErrInvalid reports a malformed digest string.
var ErrInvalid = errors.New("digest: invalid format")

// FromBytes computes the sha256 digest of b.
func FromBytes(b []byte) Digest {
	sum := sha256.Sum256(b)
	return Digest("sha256:" + hex.EncodeToString(sum[:]))
}

// FromString computes the sha256 digest of s.
func FromString(s string) Digest {
	return FromBytes([]byte(s))
}

// FromHash returns the digest of the content accumulated in h, which
// must be a sha256 hash. It is the typed alternative to assembling
// "sha256:" + hex strings by hand at streaming call sites.
func FromHash(h hash.Hash) Digest {
	return Digest("sha256:" + hex.EncodeToString(h.Sum(nil)))
}

// Parse validates s and returns it as a Digest.
func Parse(s string) (Digest, error) {
	d := Digest(s)
	if err := d.Validate(); err != nil {
		return "", err
	}
	return d, nil
}

// FromHex returns the sha256 digest whose hex portion is hexPart — the
// name a store gives a blob file — validated exactly as Parse would.
func FromHex(hexPart string) (Digest, error) {
	return Parse("sha256:" + hexPart)
}

// Validate checks that d has the form "sha256:<64 lowercase hex chars>".
func (d Digest) Validate() error {
	algo, hexPart, ok := strings.Cut(string(d), ":")
	if !ok {
		return fmt.Errorf("%w: missing ':' in %q", ErrInvalid, string(d))
	}
	if Algorithm(algo) != SHA256 {
		return fmt.Errorf("%w: unsupported algorithm %q", ErrInvalid, algo)
	}
	if len(hexPart) != sha256.Size*2 {
		return fmt.Errorf("%w: want %d hex chars, got %d", ErrInvalid, sha256.Size*2, len(hexPart))
	}
	for _, c := range hexPart {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%w: non-hex character %q", ErrInvalid, c)
		}
	}
	return nil
}

// Hex returns the hex portion of the digest (without the algorithm prefix).
func (d Digest) Hex() string {
	_, hexPart, _ := strings.Cut(string(d), ":")
	return hexPart
}

// Short returns a 12-character abbreviation of the hex portion, the common
// human-facing form. Returns the whole hex part if shorter.
func (d Digest) Short() string {
	h := d.Hex()
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// String returns the full "algorithm:hex" form.
func (d Digest) String() string { return string(d) }

// Verify reports whether content hashes to d.
func (d Digest) Verify(content []byte) bool {
	return FromBytes(content) == d
}
