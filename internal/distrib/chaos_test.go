package distrib_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// chaosCycles returns the seeded cycle count: the full 100-seed sweep
// normally, a subset under -short (CI's -race chaos job runs the
// subset; the full sweep is the release gate).
func chaosCycles() int64 {
	if testing.Short() {
		return 10
	}
	return 100
}

// TestChaosCrashRestartVerify is the core crash-consistency loop: for
// each seed, drive a DiskStore through a fault plan (EIO, short
// writes, and a power cut that freezes the torn on-disk state), then
// "reboot" — reopen the directory over the real filesystem, which runs
// Repair — and verify the recovered store: every blob whose Ingest
// reported success round-trips byte-identical with its digest
// verified, the temp spool is empty, and a second Repair finds nothing.
func TestChaosCrashRestartVerify(t *testing.T) {
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			plan := faultinject.NewPlan(seed).
				Rate(faultinject.EIO, 0.02).
				Rate(faultinject.ShortWrite, 0.03).
				Rate(faultinject.PowerCut, 0.015)
			ffs := faultinject.NewFS(faultinject.OS(), plan)
			payloads := rand.New(rand.NewSource(seed))

			committed := make(map[digest.Digest][]byte)
			store, err := distrib.NewDiskStoreFS(dir, ffs)
			if err == nil {
				for i := 0; i < 25 && !ffs.Dead(); i++ {
					content := make([]byte, 128+payloads.Intn(4096))
					payloads.Read(content)
					d, _, err := store.Ingest(bytes.NewReader(content), "")
					if err == nil {
						committed[d] = content
					}
				}
			}

			// Reboot: reopen over the real filesystem. NewDiskStore runs
			// Repair, so recovery is part of opening, not a separate step.
			reopened, err := distrib.NewDiskStore(dir)
			if err != nil {
				t.Fatalf("reopening after crash: %v", err)
			}
			for d, content := range committed {
				rc, _, err := reopened.Open(d)
				if err != nil {
					t.Fatalf("committed blob %s lost after crash: %v", d.Short(), err)
				}
				got, err := io.ReadAll(rc) // digest-verified at EOF
				rc.Close()
				if err != nil {
					t.Fatalf("committed blob %s unreadable after crash: %v", d.Short(), err)
				}
				if !bytes.Equal(got, content) {
					t.Fatalf("committed blob %s content changed after crash", d.Short())
				}
			}
			temps, err := os.ReadDir(filepath.Join(dir, "tmp"))
			if err != nil {
				t.Fatalf("reading tmp dir: %v", err)
			}
			if len(temps) != 0 {
				t.Fatalf("repair left %d orphan temp files", len(temps))
			}
			rep, err := reopened.Repair()
			if err != nil {
				t.Fatalf("second repair: %v", err)
			}
			if !rep.Clean() {
				t.Fatalf("store not clean after the open's repair: %s", rep)
			}
		})
	}
}

// TestDiskTagsCrashRestartVerify is the tag store's turn in the same
// loop: drive Sets through a faulty filesystem until the power cut,
// reopen over the real one, and verify the reopened map is the
// acknowledged Sets applied in order. One failed Set may show instead
// of its tag's last acknowledged one: the Set in doubt, whose line was
// whole on disk when the power went during it or when it broke the log
// (its Sync and the cut after it both failed). Every other failed Set —
// refused by an EIO, torn by a short write, cut off after a failed
// Sync, or refused by the broken log — must not show. Half the
// repositories are named like the temp files of the store the log
// replaced.
func TestDiskTagsCrashRestartVerify(t *testing.T) {
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			plan := faultinject.NewPlan(seed).
				Rate(faultinject.EIO, 0.02).
				Rate(faultinject.ShortWrite, 0.03).
				Rate(faultinject.PowerCut, 0.02)
			ffs := faultinject.NewFS(faultinject.OS(), plan)

			acked := make(map[string]oci.Descriptor)
			var doubt string // key of the Set in doubt, if any
			var doubtDesc oci.Descriptor
			tags, err := distrib.NewDiskTagsFS(dir, ffs)
			if err == nil {
				broken := false
				for i := 0; i < 20 && !ffs.Dead(); i++ {
					name, tag := []string{"team/app", "ref-images/app"}[i%2], fmt.Sprintf("v%d", i%7)
					desc := oci.Descriptor{MediaType: oci.MediaTypeManifest, Digest: digest.FromString(fmt.Sprint(seed, i)), Size: int64(i)}
					dead := ffs.Dead()
					err := tags.Set(name, tag, desc)
					switch {
					case err == nil:
						acked[name+":"+tag] = desc
					case !dead && ffs.Dead(), !broken && errors.Is(err, faultinject.ErrBroken):
						doubt, doubtDesc = name+":"+tag, desc
					}
					broken = broken || errors.Is(err, faultinject.ErrBroken)
				}
				tags.Close() // the crash ends the process, and its directory lock
			}

			reopened, err := distrib.NewDiskTags(dir)
			if err != nil {
				t.Fatalf("reopening tags after crash: %v", err)
			}
			defer reopened.Close()
			got := reopened.All()
			if doubt != "" && got[doubt].Digest == doubtDesc.Digest {
				if prev, ok := acked[doubt]; ok {
					got[doubt] = prev
				} else {
					delete(got, doubt)
				}
			}
			for key, d := range got {
				if _, ok := acked[key]; !ok {
					t.Errorf("tag %s = %s after crash, set by no acknowledged Set", key, d.Digest.Short())
				}
			}
			for key, want := range acked {
				if d, ok := got[key]; !ok || d.Digest != want.Digest || d.Size != want.Size {
					t.Errorf("acknowledged tag %s resolves to %v (found=%v) after crash, want %v", key, d.Digest, ok, want.Digest)
				}
			}
		})
	}
}

// TestFsckQuarantinesCorruptBlob verifies the repair invariants on a
// directly corrupted store: reopening it reports the damage, moves the
// damaged file to quarantine (never deletes it), and the blob stops
// being addressable.
func TestFsckQuarantinesCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	store, err := distrib.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := store.Ingest(strings.NewReader("precious payload"), "")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "blobs", "sha256", d.Hex())
	if err := os.WriteFile(p, []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := distrib.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := reopened.OpenReport(); len(rep.Corrupt) != 1 || rep.Corrupt[0] != d || len(rep.Misplaced) != 0 {
		t.Fatalf("open reported corrupt=%v misplaced=%v, want [%s] and none", rep.Corrupt, rep.Misplaced, d.Short())
	}
	if reopened.Has(d) {
		t.Fatal("corrupt blob still addressable after repair")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir entries=%v err=%v, want exactly 1 file", q, err)
	}
}

// TestSweepDanglingRefs verifies the referential half of recovery: a
// tag whose manifest blob is missing is removed, healthy tags stay.
func TestSweepDanglingRefs(t *testing.T) {
	tags := distrib.NewMemTags()
	blobs := oci.NewStore()
	alive := blobs.Put([]byte(`{"schemaVersion":2}`))
	if err := tags.Set("app", "good", oci.Descriptor{Digest: alive}); err != nil {
		t.Fatal(err)
	}
	if err := tags.Set("app", "dangling", oci.Descriptor{Digest: digest.FromString("never written")}); err != nil {
		t.Fatal(err)
	}
	removed, err := distrib.SweepDanglingRefs(tags, blobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "app:dangling" {
		t.Fatalf("swept %v, want [app:dangling]", removed)
	}
	if _, ok := tags.Resolve("app", "good"); !ok {
		t.Fatal("sweep removed a healthy tag")
	}
	if _, ok := tags.Resolve("app", "dangling"); ok {
		t.Fatal("dangling tag survived the sweep")
	}
}

// TestUploadSessionTTLSweep verifies abandoned upload sessions are
// reclaimed lazily once their TTL lapses, while sessions still making
// requests stay alive.
func TestUploadSessionTTLSweep(t *testing.T) {
	m := distrib.NewUploadManager()
	m.TTL = time.Hour
	now := time.Unix(1000, 0)
	m.Now = func() time.Time { return now }

	abandoned, err := m.Start("repo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abandoned.Append(strings.NewReader("half an upload"), -1); err != nil {
		t.Fatal(err)
	}

	now = now.Add(30 * time.Minute)
	live, err := m.Start("repo")
	if err != nil {
		t.Fatal(err)
	}
	// The live session keeps making requests (every protocol request
	// resolves the session via Get, which refreshes its timer)...
	now = now.Add(45 * time.Minute)
	if _, ok := m.Get(live.ID); !ok {
		t.Fatal("live session expired while active")
	}
	// ...while the abandoned one crosses its TTL and the next Start
	// sweeps it.
	now = now.Add(30 * time.Minute)
	if _, err := m.Start("repo"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(abandoned.ID); ok {
		t.Fatal("abandoned session survived its TTL")
	}
	if _, err := abandoned.Append(strings.NewReader("more"), -1); !errors.Is(err, distrib.ErrUploadClosed) {
		t.Fatalf("append to swept session: err=%v, want ErrUploadClosed", err)
	}
	if got := m.Len(); got != 2 { // live + the just-started session
		t.Fatalf("manager tracks %d sessions, want 2", got)
	}
}

// TestCancelAbortsRetryBackoff pins the acceptance criterion that a
// cancelled context aborts an in-flight retry/backoff within one timer
// tick: with a 10s backoff and a registry answering only 503, a cancel
// after 50ms must surface context.Canceled in well under one backoff.
func TestCancelAbortsRetryBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := distrib.NewClient(ts.URL)
	c.Retries = 5
	c.RetryBackoff = 10 * time.Second

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()

	start := time.Now()
	_, err := c.PullImage(ctx, oci.NewStore(), "app", "v1")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff was not aborted", elapsed)
	}
}

// TestPullResumesMidStreamDisconnect injects truncated response bodies
// into blob downloads and verifies the client resumes with HTTP Range
// requests from the bytes already received, ends byte-identical, and
// stays within its bounded retry budget.
func TestPullResumesMidStreamDisconnect(t *testing.T) {
	srv := registry.NewServer()
	inner := srv.Handler()
	var rangedGets, blobGets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/blobs/") && !strings.Contains(r.URL.Path, "/uploads") {
			blobGets.Add(1)
			if r.Header.Get("Range") != "" {
				rangedGets.Add(1)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src,
		strings.Repeat("layer-one payload ", 400),
		strings.Repeat("layer-two payload ", 600))
	if err := fastClient(ts.URL).PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}

	// Op 1 is the manifest GET; ops 2-4 (the first blob GET and its
	// first two Range resumes) get truncated bodies.
	plan := faultinject.NewPlan(7).Burst(2, 3, faultinject.Truncate)
	c := fastClient(ts.URL)
	c.Workers = 1 // serial fetches keep the op numbering reproducible
	c.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}

	dst := oci.NewStore()
	got, err := c.PullImage(context.Background(), dst, "app", "v1")
	if err != nil {
		t.Fatalf("pull under truncation: %v", err)
	}
	if got.Digest != desc.Digest {
		t.Fatalf("pulled %s, want %s", got.Digest.Short(), desc.Digest.Short())
	}
	for _, d := range src.Digests() {
		want, _ := src.Get(d)
		have, err := dst.Get(d)
		if err != nil || !bytes.Equal(want, have) {
			t.Fatalf("blob %s not byte-identical after resumed pull (err=%v)", d.Short(), err)
		}
	}
	if rangedGets.Load() == 0 {
		t.Fatal("no Range request observed: client restarted instead of resuming")
	}
	// 3 blobs + 3 injected truncations leaves 6 blob GETs; the budget
	// check catches a client that loops instead of making progress.
	if n := blobGets.Load(); n > 8 {
		t.Fatalf("%d blob GETs for 3 blobs with 3 faults: retries not bounded", n)
	}
	if events := plan.Events(); len(events) != 3 {
		t.Fatalf("expected 3 injected truncations, got %v", events)
	}
}

// TestFetchKeepsBytesAcrossTransportErrors pins which failures cost a
// download its progress. A connection refused or reset between attempts
// says nothing about the bytes already received: the next attempt asks
// for the rest (Range: bytes=N-). A status other than the one asked for
// does: the buffer is cleared and the next attempt starts over.
func TestFetchKeepsBytesAcrossTransportErrors(t *testing.T) {
	srv := registry.NewServer()
	inner := srv.Handler()
	var ranges []string // Range header of each blob GET that reached the server
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/blobs/") {
			ranges = append(ranges, r.Header.Get("Range"))
			if len(ranges) == 2 {
				http.Error(w, "briefly sick", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	payload := bytes.Repeat([]byte("bytes worth keeping "), 512)
	src := oci.NewStore()
	d := src.Put(payload)
	if err := fastClient(ts.URL).PushBlob(context.Background(), "app", src, d); err != nil {
		t.Fatal(err)
	}

	// GET 1 is cut mid-body, GET 2 never leaves the client, GET 3 is
	// answered 503 by the server, GET 4 is served.
	plan := faultinject.NewPlan(5).At(1, faultinject.Truncate).At(2, faultinject.Drop)
	c := fastClient(ts.URL)
	c.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}
	dst := oci.NewStore()
	if err := c.FetchBlob(context.Background(), dst, "app", oci.Descriptor{Digest: d}); err != nil {
		t.Fatalf("fetch across truncation, drop and 503: %v", err)
	}
	if got, err := dst.Get(d); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fetched blob not byte-identical (err=%v)", err)
	}
	if len(ranges) != 3 || ranges[0] != "" || ranges[2] != "" {
		t.Fatalf("server saw Range headers %q, want a fresh GET, a resume, and a fresh GET after the 503", ranges)
	}
	var from int
	if _, err := fmt.Sscanf(ranges[1], "bytes=%d-", &from); err != nil || from <= 0 || from >= len(payload) {
		t.Fatalf("attempt after the dropped connection sent Range %q, want bytes=N- for the prefix already received", ranges[1])
	}
	if events := plan.Events(); len(events) != 2 {
		t.Fatalf("expected the truncation and the drop, got %v", events)
	}
}

// TestChaosPushResendsCutBody: a push is one request, so a connection
// that dies partway into its body leaves nothing to resume. The client
// sends the blob again, whole, in a second POST within its retry budget,
// and opens no upload session; the registry's digest check on the
// second POST proves the bytes are the blob's.
func TestChaosPushResendsCutBody(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	payload := bytes.Repeat([]byte("sixty-four kibibytes of highly compressible test payload bytes! "), 1024)
	src := oci.NewStore()
	d := src.Put(payload)

	// Op 1 is the HEAD probe; op 2, the POST, is cut partway into its body.
	plan := faultinject.NewPlan(11).At(2, faultinject.Cut)
	sent := &requestRecorder{base: faultinject.NewTransport(nil, plan)}
	c := fastClient(ts.URL)
	c.HTTP = &http.Client{Transport: sent}

	if err := c.PushBlob(context.Background(), "app", src, d); err != nil {
		t.Fatalf("push across a cut body: %v", err)
	}
	back, err := distrib.ReadBlob(srv.Blobs(), d)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("uploaded blob not byte-identical (err=%v)", err)
	}
	post := "POST /v2/app/blobs/uploads/?digest=" + string(d)
	if got, want := strings.Join(sent.reqs, ", "), "HEAD /v2/app/blobs/"+string(d)+", "+post+", "+post; got != want {
		t.Errorf("requests %q, want the probe and the POST twice, no session", got)
	}
	if events := plan.Events(); len(events) != 1 || events[0].Kind != faultinject.Cut {
		t.Fatalf("expected exactly one injected cut, got %v", events)
	}
}

// requestRecorder is a RoundTripper that records "METHOD path?query" of
// each request it sends on.
type requestRecorder struct {
	base http.RoundTripper
	mu   sync.Mutex
	reqs []string
}

func (r *requestRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	r.reqs = append(r.reqs, req.Method+" "+req.URL.RequestURI())
	r.mu.Unlock()
	return r.base.RoundTrip(req)
}

// TestPullSurvives5xxBurst replays the flaky-registry scenario through
// the injection transport instead of a bespoke handler: a burst of
// fabricated 503s must be retried through transparently.
func TestPullSurvives5xxBurst(t *testing.T) {
	srv := registry.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	src := oci.NewStore()
	desc := buildTestImage(t, src, "tiny payload")
	if err := fastClient(ts.URL).PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(3).Burst(1, 2, faultinject.HTTP500)
	c := fastClient(ts.URL)
	c.Workers = 1
	c.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}

	dst := oci.NewStore()
	if _, err := c.PullImage(context.Background(), dst, "app", "v1"); err != nil {
		t.Fatalf("pull through 5xx burst: %v", err)
	}
	if !dst.Has(desc.Digest) {
		t.Fatal("manifest missing after pull")
	}
}
