package oci

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"comtainer/internal/cachekit"
	"comtainer/internal/fsim"
)

// hammer runs each op n times in a goroutine of its own, all at once,
// and waits for them. An op's goroutine synchronizes only through the
// mutex its op takes, so under -race an op that reads or writes shared
// state without its lock races with the others. Each goroutine yields
// after every op, so the goroutines interleave even on one CPU: runs in
// which one goroutine finished before another began reported nothing.
func hammer(n int, ops ...func()) {
	cachekit.Parallel(len(ops), 0, func(i int) error {
		for range n {
			ops[i]()
			runtime.Gosched()
		}
		return nil
	})
}

// TestStoreConcurrentUse drives every method of Store that takes its
// lock beside a goroutine that puts and deletes blobs, as a registry's
// handlers and a garbage collection share one store. Meant for -race,
// which reports a method whose access to the blobs or the remembered
// layer trees is not under s.mu.
func TestStoreConcurrentUse(t *testing.T) {
	s := NewStore()
	base := fsim.New()
	base.WriteFile("/etc/os-release", []byte("ID=ubuntu"), 0o644)
	desc, err := WriteImage(s, testConfig(), []*fsim.FS{base, appLayer()})
	if err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(s, desc)
	if err != nil {
		t.Fatal(err)
	}
	churn := func() func() {
		i := 0
		return func() { s.Delete(s.Put([]byte(fmt.Sprint("churn ", i)))); i++ }
	}
	i := 0
	for _, op := range []func(){
		func() { s.Put([]byte("kept")) },
		func() { s.Ingest(bytes.NewReader([]byte(fmt.Sprint("ingested ", i))), ""); i++ },
		func() { s.Get(desc.Digest) },
		func() { s.Open(desc.Digest) },
		func() { s.Has(desc.Digest) },
		func() { s.Digests() },
		func() { s.TotalSize() },
		func() { img.Layer(1) },
		churn(),
	} {
		hammer(100, op, churn())
	}
	if _, err := img.Flatten(); err != nil {
		t.Errorf("image lost under churn: %v", err)
	}
}

// TestRepositoryConcurrentUse: a registry tags and resolves in one
// repository from every handler at once. Meant for -race, which reports
// a method whose access to the tags is not under r.mu.
func TestRepositoryConcurrentUse(t *testing.T) {
	r := NewRepository()
	r.Tag("latest", Descriptor{Size: 1})
	retag := func() func() {
		i := 0
		return func() { r.Tag(fmt.Sprint("t", i%8), Descriptor{Size: int64(i)}); i++ }
	}
	for _, op := range []func(){
		func() { r.Tags() },
		func() { r.Resolve("latest") },
		retag(),
	} {
		hammer(100, op, retag())
	}
	if tags := r.Tags(); len(tags) != 9 {
		t.Errorf("tags = %v, want latest and t0..t7", tags)
	}
}
