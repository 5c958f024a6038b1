// External test package: the protocol suite in
// registry_protocol_test.go runs against fleet.Proxy too, and fleet
// imports registry.
package registry_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

func testImageRepo(t *testing.T) (*oci.Repository, string) {
	t.Helper()
	repo := oci.NewRepository()
	l1 := fsim.New()
	l1.WriteFile("/bin/sh", []byte("shell"), 0o755)
	l2 := fsim.New()
	l2.WriteFile("/app/demo", []byte("payload"), 0o755)
	desc, err := oci.WriteImage(repo.Store, oci.ImageConfig{
		Architecture: "amd64", OS: "linux",
		Config: oci.ExecConfig{Entrypoint: []string{"/app/demo"}},
	}, []*fsim.FS{l1, l2})
	if err != nil {
		t.Fatal(err)
	}
	repo.Tag("demo.dist", desc)
	return repo, "demo.dist"
}

func TestPushPullRoundTrip(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := registry.NewClient(ts.URL)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	src, tag := testImageRepo(t)
	if err := client.Push(context.Background(), src, tag, "user/demo", "v1"); err != nil {
		t.Fatal(err)
	}
	if len(srv.Tags()) != 1 || srv.Tags()[0] != "user/demo:v1" {
		t.Errorf("server tags = %v", srv.Tags())
	}

	dst := oci.NewRepository()
	if err := client.Pull(context.Background(), dst, "user/demo", "v1", "demo.pulled"); err != nil {
		t.Fatal(err)
	}
	img, err := dst.LoadByTag("demo.pulled")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	got, err := flat.ReadFile("/app/demo")
	if err != nil || string(got) != "payload" {
		t.Errorf("pulled content = %q, %v", got, err)
	}
	// Digest-identical manifest on both sides.
	srcDesc, _ := src.Resolve(tag)
	dstDesc, _ := dst.Resolve("demo.pulled")
	if srcDesc.Digest != dstDesc.Digest {
		t.Error("manifest digest changed in transit")
	}
}

func TestPullUnknown(t *testing.T) {
	ts := httptest.NewServer(registry.NewServer().Handler())
	defer ts.Close()
	client := registry.NewClient(ts.URL)
	if err := client.Pull(context.Background(), oci.NewRepository(), "ghost", "v1", "x"); err == nil {
		t.Error("pulled a nonexistent image")
	}
}

func TestConcurrentPushPull(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	src, tag := testImageRepo(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := registry.NewClient(ts.URL)
			name := fmt.Sprintf("user%d/app", i)
			if err := c.Push(context.Background(), src, tag, name, "v1"); err != nil {
				errs <- err
				return
			}
			dst := oci.NewRepository()
			if err := c.Pull(context.Background(), dst, name, "v1", "local"); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(srv.Tags()) != 8 {
		t.Errorf("server holds %d tags, want 8", len(srv.Tags()))
	}
}
