package actioncache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"comtainer/internal/digest"
)

// openSegment opens a cache over dir with raw as its one segment file,
// and holds the index it built to what every opener must be able to
// assume of it: no record's extent leaves the file. (One directory and
// one file name for a whole fuzz run: creating files is the slow part.)
func openSegment(t *testing.T, dir string, raw []byte) *DiskCache {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "segments", "0000000000000000001-1"), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := NewDiskCache(dir, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for k, r := range c.index {
		if r.off < 0 || r.n <= 0 || r.off+r.n > int64(len(raw)) {
			t.Fatalf("%s indexed at [%d, %d+%d) of a %d-byte file", k.Short(), r.off, r.off, r.n, len(raw))
		}
	}
	return c
}

// FuzzSegmentScan feeds the one parser that takes bytes from a cache
// directory — shared, possibly with another user's crashed process.
//
// Arbitrary bytes as a segment file never panic the open and never
// index a record whose extent leaves the file; every indexed key's Get
// returns a payload that hashes to the digest its header carries, or is
// a miss that is not offered again.
//
// Round trip: records encoded from a list of (key, value) pairs drawn
// from the same bytes are all served; cut at a fuzzed offset, exactly
// the records before the cut are; with a bit flipped at it, no record
// before the damaged one is lost. The seed corpus in
// testdata/fuzz/FuzzSegmentScan runs under plain `go test`.
func FuzzSegmentScan(f *testing.F) {
	f.Add([]byte("COMT-AC2 "), uint16(3), true)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, at uint16, flip bool) {
		c := openSegment(t, dir, raw)
		for k, r := range c.index {
			val, ok, err := c.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if ok && (digest.FromBytes(val) != r.sum || !bytes.HasSuffix(raw[:r.off+r.n], val)) {
				t.Fatalf("%s served %q, which is not the payload its header names", k.Short(), val)
			}
			if _, again, _ := c.Get(k); again != ok {
				t.Fatalf("%s: first Get found=%v, second found=%v", k.Short(), ok, again)
			}
		}

		// The round-trip half: raw as a list of records, four keys so
		// that they repeat, values up to 63 bytes.
		type rec struct {
			key digest.Digest
			val []byte
			end int // offset just past this record in the encoded segment
		}
		var recs []rec
		var enc []byte
		for rest := raw; len(rest) > 0; {
			n := min(int(rest[0]>>2), len(rest)-1)
			r := rec{key: key(fmt.Sprint("fuzz-", rest[0]&3)), val: rest[1 : 1+n]}
			enc = append(enc, testRecord(r.key, r.val)...)
			r.end = len(enc)
			recs, rest = append(recs, r), rest[1+n:]
		}
		// last returns the record the cache must serve for k when exactly
		// the records ending at or before limit are intact, or nil.
		last := func(k digest.Digest, limit int) (found *rec) {
			for i, r := range recs {
				if r.key == k && r.end <= limit {
					found = &recs[i]
				}
			}
			return found
		}
		check := func(c *DiskCache, limit int, what string) {
			for i := 0; i < 4; i++ {
				k := key(fmt.Sprint("fuzz-", i))
				want := last(k, limit)
				got, ok, _ := c.Get(k)
				if ok != (want != nil) || ok && !bytes.Equal(got, want.val) {
					t.Fatalf("%s: %s = %q, %v; want %+v", what, k.Short(), got, ok, want)
				}
			}
		}
		check(openSegment(t, dir, enc), len(enc), "whole segment")
		if len(enc) == 0 {
			return
		}
		cut := int(at) % len(enc)
		if !flip {
			check(openSegment(t, dir, enc[:cut]), cut, fmt.Sprintf("cut at %d of %d", cut, len(enc)))
			return
		}
		// Flip one bit. Records that end before it must all be served —
		// unless the key was written again at or after the damage, where
		// what the cache holds for it is any record that verifies, or none.
		damaged := bytes.Clone(enc)
		damaged[cut] ^= 1 << (at % 8)
		c = openSegment(t, dir, damaged)
		for i := 0; i < 4; i++ {
			k := key(fmt.Sprint("fuzz-", i))
			want := last(k, cut)
			if want == nil || want != last(k, len(enc)) {
				continue
			}
			if got, ok, _ := c.Get(k); !ok || !bytes.Equal(got, want.val) {
				t.Fatalf("bit %d of byte %d flipped: %s, whole before it, = %q, %v; want %q", at%8, cut, k.Short(), got, ok, want.val)
			}
		}
	})
}

// FuzzDecodeDocuments: the two stored documents reach a rebuild from a
// cache directory or a registry blob. Decoding arbitrary bytes never
// panics, and what decodes re-encodes to a document that decodes to the
// same value.
func FuzzDecodeDocuments(f *testing.F) {
	f.Add(EncodeManifest(Manifest{Inputs: []Input{{Op: OpRead, Path: "/src/a.c"}}}))
	f.Add(EncodeResult(Result{Outputs: []Output{{Path: "/src/a.o", Mode: 0o644, Data: []byte("obj")}}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if m, err := DecodeManifest(raw); err == nil {
			again, err := DecodeManifest(EncodeManifest(m))
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("manifest %+v re-encodes to %+v (%v)", m, again, err)
			}
		}
		if r, err := DecodeResult(raw); err == nil {
			again, err := DecodeResult(EncodeResult(r))
			if err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("result %+v re-encodes to %+v (%v)", r, again, err)
			}
		}
	})
}
