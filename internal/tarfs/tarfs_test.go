package tarfs

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
)

func sampleFS() *fsim.FS {
	f := fsim.New()
	f.WriteFile("/app/lulesh", []byte("binary-contents"), 0o755)
	f.WriteFile("/etc/conf", []byte("key=value\n"), 0o644)
	f.MkdirAll("/var/empty", 0o700)
	f.Symlink("/app/lulesh", "/usr/local/bin/lulesh")
	f.WriteFile("/usr/lib/.wh.libold.so", nil, 0o000)
	return f
}

func TestRoundTrip(t *testing.T) {
	orig := sampleFS()
	data, err := Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Errorf("round trip mismatch:\norig=%v\nback=%v", orig.Paths(), back.Paths())
	}
}

func TestGzipRoundTrip(t *testing.T) {
	orig := sampleFS()
	data, err := MarshalGzip(orig)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Error("gzip round trip mismatch")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Marshal(sampleFS())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(sampleFS())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Marshal is not deterministic")
	}
	if digest.FromBytes(a) != digest.FromBytes(b) {
		t.Error("digests differ")
	}
	ga, err := MarshalGzip(sampleFS())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := MarshalGzip(sampleFS())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, gb) {
		t.Error("MarshalGzip is not deterministic")
	}
}

func TestInsertionOrderIrrelevant(t *testing.T) {
	a := fsim.New()
	a.WriteFile("/x", []byte("1"), 0o644)
	a.WriteFile("/y", []byte("2"), 0o644)
	b := fsim.New()
	b.WriteFile("/y", []byte("2"), 0o644)
	b.WriteFile("/x", []byte("1"), 0o644)
	ta, _ := Marshal(a)
	tb, _ := Marshal(b)
	if !bytes.Equal(ta, tb) {
		t.Error("entry insertion order leaked into archive bytes")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("this is not a tar archive at all, definitely not")); err == nil {
		t.Error("Unmarshal accepted garbage")
	}
}

func TestEmptyFS(t *testing.T) {
	data, err := Marshal(fsim.New())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("empty FS round trip has %d entries", back.Len())
	}
}

func randomFS(seed int64) *fsim.FS {
	rng := rand.New(rand.NewSource(seed))
	f := fsim.New()
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/d%d/f%d", rng.Intn(4), rng.Intn(50))
		switch rng.Intn(3) {
		case 0:
			data := make([]byte, rng.Intn(200))
			rng.Read(data)
			f.WriteFile(p, data, 0o644)
		case 1:
			f.MkdirAll(p+"dir", 0o755)
		case 2:
			f.Symlink(fmt.Sprintf("../t%d", rng.Intn(9)), p+"ln")
		}
	}
	return f
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		orig := randomFS(seed)
		data, err := Marshal(orig)
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return orig.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeterministicDigest(t *testing.T) {
	f := func(seed int64) bool {
		a, err1 := Marshal(randomFS(seed))
		b, err2 := Marshal(randomFS(seed))
		return err1 == nil && err2 == nil && digest.FromBytes(a) == digest.FromBytes(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMarshalAllocatesOnce: Marshal sizes its buffer from the walk, so the
// archive it returns — which a blob store keeps as is — has no spare
// capacity behind it and was never grown into.
func TestMarshalAllocatesOnce(t *testing.T) {
	long := sampleFS()
	long.WriteFile("/"+string(bytes.Repeat([]byte("long/"), 30))+"name", []byte("deep"), 0o644)
	for name, fs := range map[string]*fsim.FS{"empty": fsim.New(), "sample": sampleFS(), "random": randomFS(7), "long name": long} {
		data, err := Marshal(fs)
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != len(data) {
			t.Errorf("%s: archive of %d bytes sits in a buffer of %d", name, len(data), cap(data))
		}
	}
}

// TestMarshalToMatchesMarshal: the writer-taking encoder emits Marshal's
// bytes, and MarshalGzip is still those bytes compressed in one piece.
func TestMarshalToMatchesMarshal(t *testing.T) {
	fs := randomFS(11)
	want, err := Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := MarshalTo(&streamed, fs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want) {
		t.Error("MarshalTo and Marshal disagree")
	}
	var packed bytes.Buffer
	gz, err := gzip.NewWriterLevel(&packed, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	gz.ModTime = epoch
	if _, err := gz.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := MarshalGzip(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, packed.Bytes()) {
		t.Error("MarshalGzip no longer equals the archive compressed in one write")
	}
}
