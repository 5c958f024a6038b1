package digest

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromBytesKnownVector(t *testing.T) {
	// sha256 of empty input is a well-known constant.
	const empty = "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	if got := FromBytes(nil); got != Digest(empty) {
		t.Errorf("FromBytes(nil) = %s, want %s", got, empty)
	}
	const abc = "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	if got := FromBytes([]byte("abc")); got != Digest(abc) {
		t.Errorf("FromBytes(abc) = %s, want %s", got, abc)
	}
}

func TestFromStringMatchesFromBytes(t *testing.T) {
	if FromString("hello") != FromBytes([]byte("hello")) {
		t.Error("FromString and FromBytes disagree")
	}
}

func TestParseValid(t *testing.T) {
	d := FromBytes([]byte("x"))
	got, err := Parse(string(d))
	if err != nil {
		t.Fatalf("Parse(%q): %v", d, err)
	}
	if got != d {
		t.Errorf("Parse = %s, want %s", got, d)
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []string{
		"",
		"sha256",
		"sha256:",
		"sha256:short",
		"md5:d41d8cd98f00b204e9800998ecf8427e",
		"sha256:" + strings.Repeat("Z", 64),
		"sha256:" + strings.Repeat("A", 64), // uppercase hex rejected
		strings.Repeat("a", 64),             // no algorithm
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestFromHex(t *testing.T) {
	d := FromBytes([]byte("x"))
	if got, err := FromHex(d.Hex()); err != nil || got != d {
		t.Errorf("FromHex(%q) = %s, %v; want %s", d.Hex(), got, err, d)
	}
	for _, c := range []string{
		"",
		"short",
		strings.Repeat("a", 65),
		strings.Repeat("A", 64), // uppercase hex rejected
		strings.Repeat("g", 64), // non-hex
		string(d),               // already prefixed
	} {
		if _, err := FromHex(c); !errors.Is(err, ErrInvalid) {
			t.Errorf("FromHex(%q) = %v, want ErrInvalid", c, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	d := FromBytes([]byte("payload"))
	if len(d.Hex()) != 64 {
		t.Errorf("Hex length = %d", len(d.Hex()))
	}
	if len(d.Short()) != 12 {
		t.Errorf("Short length = %d", len(d.Short()))
	}
	if !strings.HasPrefix(d.String(), "sha256:") {
		t.Errorf("String = %q", d.String())
	}
}

func TestVerify(t *testing.T) {
	content := []byte("some bytes")
	d := FromBytes(content)
	if !d.Verify(content) {
		t.Error("Verify rejected matching content")
	}
	if d.Verify([]byte("other bytes")) {
		t.Error("Verify accepted mismatched content")
	}
}

func TestPropertyDeterministicAndParseable(t *testing.T) {
	f := func(b []byte) bool {
		d1 := FromBytes(b)
		d2 := FromBytes(bytes.Clone(b))
		if d1 != d2 {
			return false
		}
		if err := d1.Validate(); err != nil {
			return false
		}
		return d1.Verify(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistinctContentDistinctDigest(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return FromBytes(a) != FromBytes(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
