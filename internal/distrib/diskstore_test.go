package distrib

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"comtainer/internal/digest"
)

func TestDiskStoreRoundTrip(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("layer bytes of a heavy HPC image")
	d, n, err := s.Ingest(bytes.NewReader(content), "")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) {
		t.Errorf("ingested %d bytes, want %d", n, len(content))
	}
	if d != digest.FromBytes(content) {
		t.Errorf("ingest digest = %s", d)
	}
	if !s.Has(d) {
		t.Error("Has = false after ingest")
	}
	r, size, err := s.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if size != int64(len(content)) {
		t.Errorf("size = %d, want %d", size, len(content))
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("content round-trip mismatch")
	}
	// Blob lives at the sharded path blobs/sha256/<ab>/<hex>.
	shard := filepath.Join(s.Root(), "blobs", "sha256", d.Hex()[:2], d.Hex())
	if _, err := os.Stat(shard); err != nil {
		t.Errorf("blob not at sharded path: %v", err)
	}
}

func TestDiskStoreIngestVerifies(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wrong := digest.FromString("something else")
	if _, _, err := s.Ingest(strings.NewReader("content"), wrong); err == nil {
		t.Fatal("mismatched digest accepted")
	}
	if s.Has(wrong) {
		t.Error("corrupt blob became addressable")
	}
	// The failed ingest must not leak a temp file.
	entries, err := os.ReadDir(filepath.Join(s.Root(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d temp files leaked", len(entries))
	}
}

func TestDiskStoreVerifyOnRead(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := s.Ingest(strings.NewReader("pristine"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the blob behind the store's back.
	path := filepath.Join(s.Root(), "blobs", "sha256", d.Hex()[:2], d.Hex())
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, _, err := s.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("reading a corrupt blob did not fail verification")
	}
}

func TestDiskStoreDelete(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := s.Ingest(strings.NewReader("doomed"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(d); err != nil {
		t.Fatal(err)
	}
	if s.Has(d) {
		t.Error("blob survives delete")
	}
	if err := s.Delete(d); err != nil {
		t.Errorf("double delete errored: %v", err)
	}
}

// TestDiskStoreCrashRecovery simulates a crash: blobs written, a stale
// temp file left behind, then the directory is reopened by a fresh
// store. Every blob must still be present and verify, and the temp
// garbage must be gone.
func TestDiskStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []digest.Digest
	for i := 0; i < 20; i++ {
		d, _, err := s.Ingest(strings.NewReader(fmt.Sprintf("blob %d content", i)), "")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	// A crash mid-ingest leaves a partial temp file.
	if err := os.WriteFile(filepath.Join(dir, "tmp", "ingest-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range want {
		if !reopened.Has(d) {
			t.Fatalf("blob %s lost across reopen", d.Short())
		}
		r, _, err := reopened.Open(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatalf("blob %s failed verify-on-read after reopen: %v", d.Short(), err)
		}
		if digest.FromBytes(b) != d {
			t.Fatalf("blob %s content mismatch after reopen", d.Short())
		}
	}
	if got := reopened.Digests(); len(got) != len(want) {
		t.Errorf("reopened store has %d blobs, want %d", len(got), len(want))
	}
	entries, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("crash garbage not cleared: %d temp files remain", len(entries))
	}
}

func TestDiskStoreConcurrentIngest(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("shared layer "), 1024)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Ingest(bytes.NewReader(content), ""); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(s.Digests()); got != 1 {
		t.Errorf("store holds %d blobs after racing identical ingests, want 1", got)
	}
}

func TestDiskStoreTotalSize(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest(strings.NewReader("abcd"), ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest(strings.NewReader("efghij"), ""); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalSize(); got != 10 {
		t.Errorf("TotalSize = %d, want 10", got)
	}
}
