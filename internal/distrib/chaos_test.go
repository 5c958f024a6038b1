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
// verified, the temp spool is empty, and a fresh Fsck is clean.
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
			rep, err := reopened.Fsck()
			if err != nil {
				t.Fatalf("fsck after repair: %v", err)
			}
			if !rep.Clean() {
				t.Fatalf("store not clean after repair: %s", rep)
			}
		})
	}
}

// TestDiskTagsCrashRestartVerify is the tag store's turn in the same
// loop: drive Sets through a faulty filesystem until the power cut —
// which, falling between a Set's write and its rename, freezes a temp
// file in refs/ — reopen over the real one, and verify every tag whose
// Set reported success resolves to what it set and no temp file is
// left. Half the repositories are named like a temp file, which the
// sweep must not mistake for one.
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

			acked := make(map[[2]string]oci.Descriptor)
			tags, err := distrib.NewDiskTagsFS(dir, ffs)
			if err == nil {
				for i := 0; i < 20 && !ffs.Dead(); i++ {
					name, tag := []string{"team/app", "ref-images/app"}[i%2], fmt.Sprintf("v%d", i%7)
					desc := oci.Descriptor{MediaType: oci.MediaTypeManifest, Digest: digest.FromString(fmt.Sprint(seed, i)), Size: int64(i)}
					if err := tags.Set(name, tag, desc); err == nil {
						acked[[2]string{name, tag}] = desc
					}
				}
			}

			reopened, err := distrib.NewDiskTags(dir)
			if err != nil {
				t.Fatalf("reopening tags after crash: %v", err)
			}
			for ref, want := range acked {
				if got, ok := reopened.Resolve(ref[0], ref[1]); !ok || got.Digest != want.Digest || got.Size != want.Size {
					t.Fatalf("acknowledged tag %s:%s resolves to %v (found=%v) after crash, want %v", ref[0], ref[1], got, ok, want)
				}
			}
			files, err := os.ReadDir(filepath.Join(dir, "refs"))
			if err != nil {
				t.Fatalf("reading refs dir: %v", err)
			}
			for _, f := range files {
				if !strings.HasSuffix(f.Name(), ".json") {
					t.Fatalf("orphan temp file %s survived reopen", f.Name())
				}
			}
		})
	}
}

// TestFsckQuarantinesCorruptBlob verifies the fsck invariants on a
// directly corrupted store: Fsck reports the damage without touching
// it, Repair moves the damaged file to quarantine (never deletes), and
// the blob stops being addressable.
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
	p := filepath.Join(dir, "blobs", "sha256", d.Hex()[:2], d.Hex())
	if err := os.WriteFile(p, []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := store.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != d {
		t.Fatalf("fsck reported corrupt=%v, want [%s]", rep.Corrupt, d.Short())
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("read-only fsck moved the file: %v", err)
	}

	rep, err = store.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("repair quarantined %d files, want 1", rep.Quarantined)
	}
	if store.Has(d) {
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

// TestUploadSessionTTLSweep verifies abandoned upload sessions and
// their spool files are reclaimed lazily once their TTL lapses, while
// sessions still making requests stay alive.
func TestUploadSessionTTLSweep(t *testing.T) {
	spool := t.TempDir()
	m := distrib.NewUploadManager(spool)
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
	// sweeps it, spool file and all.
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
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // live + the just-started session
		t.Fatalf("spool holds %d files, want 2 (abandoned spool not reclaimed)", len(entries))
	}
	if got := m.Len(); got != 2 {
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
	_, _, _, err := c.FetchManifest(ctx, "app", "v1")
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
	if err := c.FetchBlob(context.Background(), dst, "app", d); err != nil {
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

// TestPushResumesAfterDrop kills the connection under a mid-upload
// PATCH and verifies the client queries the committed offset and
// resumes the chunked upload instead of restarting, finishing with the
// registry holding the exact blob (its digest check at finalize proves
// byte-identity).
func TestPushResumesAfterDrop(t *testing.T) {
	srv := registry.NewServer()
	inner := srv.Handler()
	var offsetQueries atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, "/blobs/uploads/") {
			offsetQueries.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	payload := bytes.Repeat([]byte("sixty-four kibibytes of highly compressible test payload bytes! "), 1024)
	src := oci.NewStore()
	d := src.Put(payload)

	// Op 1 HEAD, op 2 POST, op 3 first PATCH; op 4 — the second PATCH —
	// loses its connection.
	plan := faultinject.NewPlan(11).At(4, faultinject.Drop)
	c := fastClient(ts.URL)
	c.ChunkSize = 8 << 10
	c.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}

	if err := c.PushBlob(context.Background(), "app", src, d); err != nil {
		t.Fatalf("push across dropped connection: %v", err)
	}
	if !srv.Blobs().Has(d) {
		t.Fatal("registry does not hold the blob after resumed push")
	}
	back, err := distrib.ReadBlob(srv.Blobs(), d)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("uploaded blob not byte-identical (err=%v)", err)
	}
	if offsetQueries.Load() == 0 {
		t.Fatal("client never queried the committed offset: restarted instead of resuming")
	}
	if events := plan.Events(); len(events) != 1 || events[0].Kind != faultinject.Drop {
		t.Fatalf("expected exactly one injected drop, got %v", events)
	}
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
