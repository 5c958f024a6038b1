package oci

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"comtainer/internal/digest"
)

// plain hides whatever else a reader is, so it has no length to give.
type plain struct{ io.Reader }

func TestReadSized(t *testing.T) {
	content := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	for _, tc := range []struct {
		name     string
		have     int // bytes of content already in buf (a resumed fetch)
		r        io.Reader
		size     int64
		declared bool
		wantErr  error // nil, a sentinel, or errAny
		wantLen  int
		wantCap  int // when > 0: the result's capacity, to the size class
	}{
		{name: "fact", r: bytes.NewReader(content), size: 65536, wantLen: 65536, wantCap: 65536},
		{name: "declared", r: bytes.NewReader(content), size: 65536, declared: true, wantLen: 65536, wantCap: 65536},
		{name: "one byte at a time", r: iotest.OneByteReader(bytes.NewReader(content)), size: 65536, wantLen: 65536, wantCap: 65536},
		{name: "eof with the last bytes", r: iotest.DataErrReader(bytes.NewReader(content)), size: 65536, wantLen: 65536},
		{name: "resumed", have: 1000, r: bytes.NewReader(content[1000:]), size: 65536, wantLen: 65536, wantCap: 65536},
		{name: "no size", r: plain{bytes.NewReader(content)}, size: -1, wantLen: 65536},
		{name: "empty", r: strings.NewReader(""), size: 0, wantLen: 0},
		{name: "short", r: bytes.NewReader(content[:100]), size: 65536, wantErr: io.ErrUnexpectedEOF, wantLen: 100},
		{name: "long", r: bytes.NewReader(content), size: 100, wantErr: errAny, wantLen: 100},
		{name: "read error", r: iotest.TimeoutReader(bytes.NewReader(content)), size: 65536, wantErr: iotest.ErrTimeout},
		{name: "too large", r: bytes.NewReader(content), size: MaxBlobSize + 1, declared: true, wantErr: ErrBlobTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), content[:tc.have]...)
			got, err := ReadSized(buf, tc.r, tc.size, tc.declared)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("ReadSized: %v", err)
			case tc.wantErr == errAny && err == nil:
				t.Fatal("ReadSized accepted it")
			case tc.wantErr != nil && tc.wantErr != errAny && !errors.Is(err, tc.wantErr):
				t.Fatalf("ReadSized: %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != iotest.ErrTimeout && len(got) != tc.wantLen {
				t.Errorf("result holds %d bytes, want %d", len(got), tc.wantLen)
			}
			if !bytes.Equal(got, content[:len(got)]) {
				t.Error("result is not a prefix of the content")
			}
			if tc.wantCap > 0 && (cap(got) < tc.wantCap || cap(got) > tc.wantCap+tc.wantCap/8) {
				t.Errorf("result has capacity %d for %d bytes: not allocated at its size", cap(got), tc.wantCap)
			}
		})
	}
}

var errAny = errors.New("any error")

// TestReadSizedDeclaredIsProvenFirst: a declaration costs unprovenAlloc
// until that many bytes arrived, a fact is allocated at once, and both
// end with the same bytes.
func TestReadSizedDeclaredIsProvenFirst(t *testing.T) {
	const size = unprovenAlloc + 4096
	// The peer that declares size and sends ten bytes.
	got, err := ReadSized(nil, strings.NewReader("ten bytes!"), size, true)
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 10 {
		t.Fatalf("ReadSized of a short body = %d bytes, %v", len(got), err)
	}
	if cap(got) > unprovenAlloc+unprovenAlloc/8 {
		t.Errorf("a declaration of %d bytes that delivered 10 cost %d", size, cap(got))
	}
	content := bytes.Repeat([]byte{7}, size)
	for _, declared := range []bool{false, true} {
		got, err := ReadSized(nil, bytes.NewReader(content), size, declared)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("declared=%v: wrong content (err=%v)", declared, err)
		}
	}
}

// TestIngestOwnsItsBytes: Ingest keeps the slice it read into, so that
// slice must be nobody else's — not the source's backing array, which
// the caller goes on to reuse.
func TestIngestOwnsItsBytes(t *testing.T) {
	src := []byte("bytes the caller still holds after Ingest returns")
	want := digest.FromBytes(src)
	s := NewStore()
	if _, _, err := s.Ingest(bytes.NewReader(src), want); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 'x'
	}
	got, err := s.Get(want)
	if err != nil || !want.Verify(got) {
		t.Fatalf("stored blob changed with the caller's slice: %q (err=%v)", got, err)
	}
	// Every reader shape the data plane hands a store: sized by fact,
	// sized by declaration, not sized.
	content := []byte("one blob, three kinds of reader")
	for name, r := range map[string]io.Reader{
		"bytes.Reader": bytes.NewReader(content),
		"SizedReader":  NewSizedReader(bytes.NewReader(content), int64(len(content))),
		"plain":        plain{bytes.NewReader(content)},
	} {
		s := NewStore()
		d, n, err := s.Ingest(r, "")
		if err != nil || d != digest.FromBytes(content) || n != int64(len(content)) {
			t.Errorf("%s: Ingest = %s, %d, %v", name, d.Short(), n, err)
		}
		if _, _, err := s.Ingest(bytes.NewReader(content), digest.FromString("something else")); err == nil {
			t.Errorf("%s: Ingest stored content under a digest it does not hash to", name)
		}
	}
	// A declaration the body does not keep is refused, not stored short.
	if _, _, err := NewStore().Ingest(NewSizedReader(strings.NewReader("short"), 100), ""); err == nil {
		t.Error("Ingest stored a body that ended before its declared length")
	}
}

// TestReceiverHashesWhatItHolds: a Receiver's digest is the digest of
// exactly the bytes it holds — across a cut and a resume, after a Reset,
// and when a body runs past its size (the byte that shows it is neither
// kept nor hashed). A store adopts the buffer itself and empties the
// Receiver; one that has been read from is read like any reader.
func TestReceiverHashesWhatItHolds(t *testing.T) {
	content := bytes.Repeat([]byte("received, hashed, kept "), 3000)
	check := func(rc *Receiver, want []byte) {
		t.Helper()
		if !bytes.Equal(rc.Bytes(), want) || rc.Len() != len(want) {
			t.Fatalf("Receiver holds %d bytes, want %d", rc.Len(), len(want))
		}
		if rc.Digest() != digest.FromBytes(want) {
			t.Fatal("Receiver's digest is not the digest of its bytes")
		}
	}
	size := int64(len(content))

	var rc Receiver
	check(&rc, nil)
	cut := iotest.TimeoutReader(iotest.HalfReader(bytes.NewReader(content)))
	if err := rc.Receive(cut, size, false); !errors.Is(err, iotest.ErrTimeout) {
		t.Fatalf("cut Receive: %v", err)
	}
	have := rc.Len()
	check(&rc, content[:have])
	if err := rc.Receive(bytes.NewReader(content[have:]), size, false); err != nil {
		t.Fatal(err)
	}
	check(&rc, content)
	rc.Reset()
	check(&rc, nil)
	if err := rc.Receive(bytes.NewReader(content), 100, false); err == nil {
		t.Fatal("Receive accepted a body past its size")
	}
	check(&rc, content[:100])

	rc.Reset()
	if err := rc.Receive(bytes.NewReader(content), size, false); err != nil {
		t.Fatal(err)
	}
	held := rc.Bytes()
	s := NewStore()
	if _, _, err := s.Ingest(&rc, digest.FromString("something else")); err == nil || s.Has(digest.FromBytes(content)) {
		t.Fatalf("Ingest of a Receiver under a digest it does not hash to: %v", err)
	}
	d, n, err := s.Ingest(&rc, digest.FromBytes(content))
	if err != nil || n != size {
		t.Fatalf("Ingest of a Receiver = %d, %v", n, err)
	}
	if got, _ := s.Get(d); unsafe.SliceData(got) != unsafe.SliceData(held) {
		t.Error("the store copied the Receiver's buffer instead of keeping it")
	}
	check(&rc, nil)
	if err := rc.Receive(bytes.NewReader(content), size, false); err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(rc.Bytes()) == unsafe.SliceData(held) {
		t.Error("the Receiver wrote into the buffer a store keeps")
	}

	// Read from, it is only a reader of what is left.
	if _, err := rc.Read(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if d, _, err := NewStore().Ingest(&rc, ""); err != nil || d != digest.FromBytes(content[10:]) {
		t.Errorf("Ingest of a Receiver read from = %s, %v; want the rest's digest", d.Short(), err)
	}
}

// TestGunzipIsBounded: an inflate reads one byte past its bound and no
// further, whatever size the stream encodes.
func TestGunzipIsBounded(t *testing.T) {
	const bound = 4096
	deflate := func(n int) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, err := Gunzip(deflate(bound), bound); err != nil || len(got) != bound {
		t.Errorf("Gunzip of exactly the bound = %d bytes, %v", len(got), err)
	}
	if got, err := Gunzip(deflate(bound+1), bound); !errors.Is(err, ErrBlobTooLarge) || got != nil {
		t.Errorf("Gunzip of the bound + 1 = %d bytes, %v; want ErrBlobTooLarge", len(got), err)
	}
	if _, err := Gunzip([]byte("not a gzip stream"), bound); err == nil {
		t.Error("Gunzip accepted a stream that is not gzip")
	}
	// A 16 KiB stream of 16 MiB of zeros costs what the bound costs.
	bomb := deflate(16 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Gunzip(bomb, bound)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBlobTooLarge) {
		t.Errorf("Gunzip of %d bytes inflating to 16 MiB: %v, want ErrBlobTooLarge", len(bomb), err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("Gunzip under a %d-byte bound allocated %d bytes", bound, n)
	}
}
