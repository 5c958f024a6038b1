package registry_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// gatedStore holds each Ingest until two have begun: two commits of
// one digest both begin before either stores it.
type gatedStore struct {
	distrib.Store
	both sync.WaitGroup
}

func (s *gatedStore) Ingest(r io.Reader, want digest.Digest) (digest.Digest, int64, error) {
	s.both.Done()
	s.both.Wait()
	return s.Store.Ingest(r, want)
}

// orderedHook lets the first replication it sees succeed and fails the
// next one, once the first commit's 201 is out.
type orderedHook struct {
	calls      atomic.Int64
	firstAcked chan struct{}
}

func (h *orderedHook) BlobCommitted(_ context.Context, _ digest.Digest, _ int64, body io.Reader) error {
	if _, err := io.Copy(io.Discard, body); err != nil {
		return err
	}
	return h.next()
}

func (h *orderedHook) ManifestCommitted(context.Context, string, string, string, []byte) error {
	return h.next()
}

func (h *orderedHook) next() error {
	if h.calls.Add(1) == 1 {
		return nil
	}
	<-h.firstAcked
	return errors.New("follower unreachable")
}

// TestRollbackKeepsConcurrentAck: two commits of one new blob, or of
// one manifest, run at once; the first is replicated and acknowledged,
// the second's replication fails. The second's rollback must not take
// away what the first was acknowledged for, and once the server has
// closed no goroutine of the commit (its hook) is left.
func TestRollbackKeepsConcurrentAck(t *testing.T) {
	config := digest.FromString("{}")
	manifest := []byte(fmt.Sprintf(`{"schemaVersion":2,"mediaType":%q,"config":{"mediaType":%q,"digest":%q,"size":2},"layers":[]}`,
		oci.MediaTypeManifest, "application/vnd.oci.image.config.v1+json", config))
	for _, tc := range []struct {
		kind, method, path string
		content            []byte
	}{
		{"blob", http.MethodPost, "/v2/app/blobs/uploads/?digest=" + string(digest.FromString("one blob, two pushes")), []byte("one blob, two pushes")},
		{"manifest", http.MethodPut, "/v2/app/manifests/v1", manifest},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			store := &gatedStore{Store: oci.NewStore()}
			store.both.Add(2)
			srv := registry.NewServerWith(store, distrib.NewMemTags())
			srv.TrustReferences = true
			hook := &orderedHook{firstAcked: make(chan struct{})}
			srv.SetCommitHook(hook)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				ts.Close()
				if left := faultinject.Survivors("comtainer/internal/registry.", time.Second); len(left) > 0 {
					t.Errorf("%d goroutines outlived the server:\n\n%s", len(left), strings.Join(left, "\n\n"))
				}
			})

			var acked sync.Once
			codes := make([]int, 2)
			var wg sync.WaitGroup
			for i := range codes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.content))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set("Content-Type", oci.MediaTypeManifest)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					codes[i] = resp.StatusCode
					if resp.StatusCode == http.StatusCreated {
						acked.Do(func() { close(hook.firstAcked) })
					}
				}()
			}
			wg.Wait()
			slices.Sort(codes)
			if !slices.Equal(codes, []int{http.StatusCreated, http.StatusServiceUnavailable}) {
				t.Fatalf("codes %v, want one 201 and one 503", codes)
			}
			if d := digest.FromBytes(tc.content); !store.Has(d) {
				t.Errorf("the store lost %s after acknowledging it", d.Short())
			}
		})
	}
}
