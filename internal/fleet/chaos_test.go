package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/faultinject"
	"comtainer/internal/fleet"
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

// TestFleetChaosLeaderKillMidPush is the fleet's core durability test:
// while a client streams blobs through the proxy (with injected
// faults on the proxy-to-shard wire), the leader of a seeded shard
// group is killed outright. Every push the client saw acknowledged —
// before, during, or after the kill — must survive on the promoted
// replica and read back byte-identical through the proxy; pushes
// after the kill must keep succeeding via failover.
func TestFleetChaosLeaderKillMidPush(t *testing.T) {
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			p, ts, shards := startFleet(t, 2, 2)
			plan := faultinject.NewPlan(seed).
				Rate(faultinject.HTTP500, 0.02).
				Rate(faultinject.Drop, 0.02)
			p.HTTP = &http.Client{Transport: faultinject.NewTransport(http.DefaultTransport, plan)}

			rng := rand.New(rand.NewSource(seed))
			victimShard := shards[int(seed)%len(shards)]
			killAfter := 3 + rng.Intn(5) // acks before the kill

			src := oci.NewStore()
			type blob struct {
				d       digest.Digest
				content []byte
			}
			var blobs []blob
			for i := 0; i < 12; i++ {
				content := make([]byte, 128+rng.Intn(4096))
				rng.Read(content)
				d, _, err := src.Ingest(bytes.NewReader(content), "")
				if err != nil {
					t.Fatal(err)
				}
				blobs = append(blobs, blob{d: d, content: content})
			}

			var mu sync.Mutex
			acked := make(map[digest.Digest][]byte)
			c := fastClient(ts.URL)

			// The pusher streams blobs one at a time, recording each
			// acknowledged digest. Individual failures during the kill
			// window are legitimate — the client saw them fail.
			pushed := make(chan int, len(blobs))
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, b := range blobs {
					if err := c.PushBlob(context.Background(), "chaos", src, b.d); err == nil {
						mu.Lock()
						acked[b.d] = b.content
						mu.Unlock()
					}
					pushed <- i
				}
			}()

			// Kill the victim group's current leader once enough pushes
			// are acknowledged, mid-stream.
			killed := false
			for range blobs {
				<-pushed
				mu.Lock()
				n := len(acked)
				mu.Unlock()
				if !killed && n >= killAfter {
					victim := victimShard.leaderReplica(t)
					victim.kill()
					// Membership change: the survivor stops replicating
					// to its dead peer and leads the group alone.
					for _, r := range victimShard.replicas {
						if r != victim {
							r.rep.SetFollowers()
						}
					}
					killed = true
				}
			}
			wg.Wait()
			if !killed {
				t.Fatalf("only %d pushes acknowledged; kill threshold %d never reached", len(acked), killAfter)
			}

			// Failover must keep accepting writes — including a manifest,
			// whose fan-out crosses the degraded group.
			after := buildTestImage(t, src, fmt.Sprintf("post-failover layer %d", seed))
			if err := c.PushImage(context.Background(), src, after, "chaos", "after"); err != nil {
				t.Fatalf("push after leader kill: %v", err)
			}

			// Zero acknowledged-write loss: every acked blob reads back
			// byte-identical through the proxy, and the ones owned by the
			// degraded group are durably on its surviving replica.
			ring := p.Ring()
			for d, content := range acked {
				dst := oci.NewStore()
				if err := c.FetchBlob(context.Background(), dst, "chaos", oci.Descriptor{Digest: d}); err != nil {
					t.Fatalf("acked blob %s unreadable after leader kill: %v", d.Short(), err)
				}
				got, err := distrib.ReadBlob(dst, d)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatalf("acked blob %s content changed after leader kill", d.Short())
				}
				if ring.Owner(d) == victimShard.group.Name() {
					if !victimShard.leaderReplica(t).srv.Blobs().Has(d) {
						t.Fatalf("acked blob %s missing from promoted replica", d.Short())
					}
				}
			}
			dst := oci.NewStore()
			got, err := c.PullImage(context.Background(), dst, "chaos", "after")
			if err != nil {
				t.Fatalf("pulling post-failover image: %v", err)
			}
			if got.Digest != after.Digest {
				t.Fatalf("post-failover image digest %s, want %s", got.Digest, after.Digest)
			}
		})
	}
}

// TestFleetChaosNoFalseAck kills a follower before a push: the leader
// cannot replicate, so the client must see the push fail AND the
// leader must not quietly keep the blob — an unreplicated commit that
// later short-circuited a retry would be a false acknowledgement.
func TestFleetChaosNoFalseAck(t *testing.T) {
	_, ts, shards := startFleet(t, 2)
	sh := shards[0]
	sh.replicas[1].kill()

	src := oci.NewStore()
	d, _, err := src.Ingest(bytes.NewReader([]byte("must not be acked")), "")
	if err != nil {
		t.Fatal(err)
	}
	c := fastClient(ts.URL)
	c.Retries = 1
	if err := c.PushBlob(context.Background(), "app", src, d); err == nil {
		t.Fatal("push succeeded with a dead follower; replication ack is broken")
	}
	if sh.replicas[0].srv.Blobs().Has(d) {
		t.Fatal("leader kept an unreplicated blob after failing the push")
	}
}

// TestFleetChaosProxyRestart proves the proxy holds no state that a
// restart loses: a second proxy instance over the same shard groups
// serves everything the first one ingested.
func TestFleetChaosProxyRestart(t *testing.T) {
	_, ts, shards := startFleet(t, 1, 1)
	src := oci.NewStore()
	desc := buildTestImage(t, src, manyPayloads(4)...)
	if err := fastClient(ts.URL).PushImage(context.Background(), src, desc, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	groups := make([]*fleet.ShardGroup, 0, len(shards))
	for _, sh := range shards {
		g, err := fleet.NewShardGroup(sh.group.Name(), sh.replicas[0].ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	p2, err := fleet.NewProxy(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(p2.Handler())
	defer ts2.Close()
	dst := oci.NewStore()
	got, err := fastClient(ts2.URL).PullImage(context.Background(), dst, "app", "v1")
	if err != nil {
		t.Fatalf("pull through restarted proxy: %v", err)
	}
	if got.Digest != desc.Digest {
		t.Fatalf("restarted-proxy pull digest %s, want %s", got.Digest, desc.Digest)
	}
}

// TestFleetWatchPromotes drives the heartbeat path: after the leader
// dies silently (no request traffic), CheckLeaders promotes the
// follower once the miss threshold is reached — not before.
func TestFleetWatchPromotes(t *testing.T) {
	p, _, shards := startFleet(t, 2)
	sh := shards[0]
	leader := sh.leaderReplica(t)
	follower := sh.replicas[1]
	leader.kill()

	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	if got := sh.group.Leader(); got != leader.ts.URL {
		t.Fatalf("one missed heartbeat already promoted to %s", got)
	}
	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	if got := sh.group.Leader(); got != follower.ts.URL {
		t.Fatalf("leader after two misses = %s, want promoted follower %s", got, follower.ts.URL)
	}
	// A healthy leader is left alone.
	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	p.CheckLeaders(context.Background(), 100*time.Millisecond)
	if got := sh.group.Leader(); got != follower.ts.URL {
		t.Fatalf("healthy promoted leader was demoted to %s", got)
	}
}

// diskPair is one shard group of two disk replicas, each replicating
// to the other, behind a proxy. wrap, when set, wraps replica i's
// handler.
type diskPair struct {
	srvs  [2]*registry.Server
	reps  [2]*fleet.Replicator
	ts    [2]*quietServer
	group *fleet.ShardGroup
	proxy *fleet.Proxy
	front *quietServer
}

// quietServer is an httptest.Server whose stop waits for the requests in
// flight to end, not for their connections to close: net/http keeps a
// connection whose handler left a body unread open for 500 ms more
// (rstAvoidanceDelay), and Close waits that out. conns holds each
// connection's state; one whose handler has returned is dropped from it.
// The test's cleanup stops it.
type quietServer struct {
	*httptest.Server
	mu     sync.Mutex
	quiet  *sync.Cond // broadcast when a connection leaves New or Active
	conns  map[net.Conn]http.ConnState
	served chan struct{} // closed when the server's accept loop has ended
}

// servedListener closes served when Accept fails on the closed listener.
// The server reports a connection New before it accepts the next, so from
// then on conns has every connection the server will serve. Without that
// wait, a stop that came between an Accept and its report went on to
// stop the replicas under a proxy handler still to run, whose dial to the
// stopped leader then promoted the follower: the "a client's cut body
// moved the leader" of TestFleetChaosProxyStreamClientCut's seeds 62
// and 18.
type servedListener struct {
	net.Listener
	served chan struct{}
}

func (l servedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if errors.Is(err, net.ErrClosed) {
		close(l.served)
	}
	return c, err
}

type connKey struct{}

func newQuietServer(t *testing.T, h http.Handler) *quietServer {
	q := &quietServer{conns: make(map[net.Conn]http.ConnState), served: make(chan struct{})}
	q.quiet = sync.NewCond(&q.mu)
	q.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer q.setState(r.Context().Value(connKey{}).(net.Conn), http.StateClosed)
		h.ServeHTTP(w, r)
	}))
	q.Listener = servedListener{q.Listener, q.served}
	q.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		return context.WithValue(ctx, connKey{}, c)
	}
	q.Config.ConnState = q.setState
	q.Start()
	t.Cleanup(q.stop)
	return q
}

func (q *quietServer) setState(c net.Conn, s http.ConnState) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if s == http.StateClosed || s == http.StateHijacked {
		delete(q.conns, c)
	} else {
		q.conns[c] = s
	}
	q.quiet.Broadcast()
}

// stop does what Close does up to its wait: it stops accepting and
// closes every connection with no request in flight. Then it waits for
// every handler to return.
func (q *quietServer) stop() {
	q.Listener.Close()
	<-q.served
	q.Config.SetKeepAlivesEnabled(false)
	q.mu.Lock()
	defer q.mu.Unlock()
	for c, s := range q.conns {
		if s == http.StateNew || s == http.StateIdle {
			c.Close()
		}
	}
	for q.active() {
		q.quiet.Wait()
	}
}

func (q *quietServer) active() bool {
	for _, s := range q.conns {
		if s == http.StateNew || s == http.StateActive {
			return true
		}
	}
	return false
}

func startDiskPair(t *testing.T, wrap func(i int, h http.Handler) http.Handler) *diskPair {
	t.Helper()
	dp := &diskPair{}
	for i := range dp.srvs {
		blobs, err := distrib.NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dp.srvs[i] = registry.NewServerWith(blobs, distrib.NewMemTags())
		dp.srvs[i].TrustReferences = true
		h := dp.srvs[i].Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		dp.ts[i] = newQuietServer(t, h)
	}
	for i, srv := range dp.srvs {
		dp.reps[i] = fleet.NewReplicator(srv.Blobs(), nil, dp.ts[1-i].URL)
		srv.SetCommitHook(dp.reps[i])
	}
	var err error
	if dp.group, err = fleet.NewShardGroup("pair", dp.ts[0].URL, dp.ts[1].URL); err != nil {
		t.Fatal(err)
	}
	if dp.proxy, err = fleet.NewProxy([]*fleet.ShardGroup{dp.group}, 0); err != nil {
		t.Fatal(err)
	}
	dp.front = newQuietServer(t, dp.proxy.Handler())
	return dp
}

// leaderIndex returns which replica the proxy's group leads with.
func (dp *diskPair) leaderIndex() int {
	if dp.group.Leader() == dp.ts[0].URL {
		return 0
	}
	return 1
}

// settle waits for every request to the proxy, then to the replicas, to
// end, and stops the three servers.
func (dp *diskPair) settle() {
	dp.front.stop()
	for _, ts := range dp.ts {
		ts.stop()
	}
}

// checkNoTemps fails t for an interrupted ingest left in a replica's
// tmp/, naming each temp with its size, and then prints every
// goroutine's stack, to show what was still inside an ingest.
func (dp *diskPair) checkNoTemps(t *testing.T) {
	t.Helper()
	left := false
	for i, srv := range dp.srvs {
		temps, err := filepath.Glob(filepath.Join(srv.Blobs().(*distrib.DiskStore).Root(), "tmp", "ingest-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range temps {
			size := int64(-1)
			if fi, err := os.Stat(name); err == nil {
				size = fi.Size()
			}
			t.Errorf("replica %d left ingest temp %s, %d bytes", i, filepath.Base(name), size)
			left = true
		}
	}
	if left {
		stacks := make([]byte, 1<<20)
		t.Logf("goroutines:\n%s", stacks[:runtime.Stack(stacks, true)])
	}
}

// TestFleetChaosProxyStreamLeaderKill: multi-MiB blobs go up through the
// proxy in one request each, relayed to the leader as they arrive, while
// the proxy-to-leader hop cuts request bodies at a seeded rate and the
// replica taking a stream is killed partway through it. Every push the
// client saw acknowledged reads back from the survivor, and no replica
// keeps an interrupted ingest.
func TestFleetChaosProxyStreamLeaderKill(t *testing.T) {
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			const blobs = 3
			var contents [][]byte
			var digests []digest.Digest
			src := oci.NewStore()
			for i := 0; i < blobs; i++ {
				// randomBlob's bytes, hashed once: by Put.
				content := make([]byte, 1<<20+rng.Intn(2<<20))
				rand.New(rand.NewSource(seed*blobs + int64(i))).Read(content)
				contents = append(contents, content)
				digests = append(digests, src.Put(content))
			}
			// The kill lands inside the first blob's bytes, counted over
			// every client-facing body either replica reads.
			killAt := int64(64<<10 + rng.Intn(len(contents[0])-64<<10))
			var streamed atomic.Int64
			var dp *diskPair
			var once sync.Once
			var victim int
			var down [2]killSwitch
			dead := make(chan struct{})
			// history is what a failure prints: each POST a replica
			// answered, and where the kill landed among them.
			var historyMu sync.Mutex
			var history []string
			note := func(format string, args ...any) {
				historyMu.Lock()
				history = append(history, fmt.Sprintf(format, args...))
				historyMu.Unlock()
			}
			told := func() string {
				historyMu.Lock()
				defer historyMu.Unlock()
				return strings.Join(history, "\n")
			}
			// The kill: the survivor stops replicating to its dead peer
			// and leads alone; the victim's connections are cut, the one
			// whose body read called the kill among them, and every
			// later one is dropped.
			kill := func(i int) {
				once.Do(func() {
					victim = i
					note("kill: replica %d, at body byte %d, while the proxy's leader is replica %d", i, killAt, dp.leaderIndex())
					go func() {
						dp.reps[1-i].SetFollowers()
						down[i].Store(true)
						dp.ts[i].CloseClientConnections()
						close(dead)
					}()
				})
				<-dead
			}
			dp = startDiskPair(t, func(i int, h http.Handler) http.Handler {
				h = down[i].wrap(h)
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method != http.MethodPost || down[i].Load() {
						h.ServeHTTP(w, r)
						return
					}
					from := "the proxy"
					if r.Header.Get(distrib.ReplicatedHeader) != "" {
						from = "its peer"
					} else {
						r.Body = &killingBody{ReadCloser: r.Body, read: &streamed, at: killAt, kill: func() { kill(i) }}
					}
					sw := &statusWriter{ResponseWriter: w}
					h.ServeHTTP(sw, r)
					d, _ := digest.Parse(r.URL.Query().Get("digest"))
					note("replica %d answered %s's POST of %s: %d", i, from, d.Short(), sw.status)
				})
			})
			plan := faultinject.NewPlan(seed).Rate(faultinject.Cut, 0.2)
			dp.proxy.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}

			c := fastClient(dp.front.URL)
			acked := make(map[digest.Digest][]byte)
			for i, content := range contents {
				err := c.PushBlob(context.Background(), "chaos", src, digests[i])
				if err == nil {
					acked[digests[i]] = content
				}
				note("client: push of %s: %v", digests[i].Short(), err)
			}
			if streamed.Load() < killAt {
				t.Fatalf("the replicas read %d body bytes; the kill at %d never came", streamed.Load(), killAt)
			}
			<-dead
			survivor := dp.srvs[1-victim]
			for d, content := range acked {
				if !survivor.Blobs().Has(d) {
					t.Errorf("acknowledged blob %s is not on the survivor, replica %d; history:\n%s", d.Short(), 1-victim, told())
				}
				dst := oci.NewStore()
				if err := c.FetchBlob(context.Background(), dst, "chaos", oci.Descriptor{Digest: d}); err != nil {
					t.Fatalf("acknowledged blob %s unreadable through the proxy, whose leader is replica %d: %v; history:\n%s", d.Short(), dp.leaderIndex(), err, told())
				}
				if got, err := distrib.ReadBlob(dst, d); err != nil || !bytes.Equal(got, content) {
					t.Fatalf("acknowledged blob %s read back wrong (err %v)", d.Short(), err)
				}
			}
			if len(acked) == 0 {
				t.Errorf("no push was acknowledged (faults %v)", plan.Events())
			}
			dp.settle()
			dp.checkNoTemps(t)
		})
	}
}

// killingBody is a request body that, in the read taking the bytes read
// across every such body to at or past at, calls kill and then fails.
type killingBody struct {
	io.ReadCloser
	read *atomic.Int64
	at   int64
	kill func()
}

func (b *killingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if total := b.read.Add(int64(n)); total >= b.at && total-int64(n) < b.at {
		b.kill()
		return 0, errors.New("killed mid-body")
	}
	return n, err
}

// TestFleetChaosProxyStreamClientCut: a client that resets its
// connection partway through a multi-MiB single-request body fails its
// own upload, not the shard's: the group keeps its leader, and no
// replica stores the blob or keeps an interrupted ingest.
func TestFleetChaosProxyStreamClientCut(t *testing.T) {
	for seed := int64(1); seed <= chaosCycles(); seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			dp := startDiskPair(t, nil)
			leader := dp.group.Leader()
			content, d := randomBlob(seed, 2<<20)
			cut := 64<<10 + rand.New(rand.NewSource(seed)).Intn(len(content)-64<<10)

			conn, err := net.Dial("tcp", strings.TrimPrefix(dp.front.URL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST /v2/app/blobs/uploads/?digest=%s HTTP/1.1\r\nHost: proxy\r\nContent-Length: %d\r\n\r\n", d, len(content))
			if _, err := conn.Write(content[:cut]); err != nil {
				t.Fatal(err)
			}
			_ = conn.(*net.TCPConn).SetLinger(0) // Close resets the connection
			conn.Close()

			dp.settle()
			if got := dp.group.Leader(); got != leader {
				t.Errorf("a client's cut body moved the leader from %s to %s", leader, got)
			}
			for i, srv := range dp.srvs {
				if srv.Blobs().Has(d) {
					t.Errorf("replica %d stored a blob whose body was cut at %d of %d bytes", i, cut, len(content))
				}
			}
			dp.checkNoTemps(t)
		})
	}
}

// cutFirst is a proxy-to-shard transport step that fails a push only
// after the client pushing through the proxy has cut its body: it takes
// a block of the relayed body and a byte (so the relay has read three
// blocks of the client's body and is blocked passing one on), reports
// that on taken, waits for cut to close, and answers a connection reset
// with the rest unread, while the client's reset is still unread in the
// proxy's socket.
type cutFirst struct{ taken, cut chan struct{} }

func (c cutFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	defer req.Body.Close()
	if _, err := io.CopyN(io.Discard, req.Body, 32<<10+1); err != nil {
		return nil, err
	}
	close(c.taken)
	<-c.cut
	return nil, fmt.Errorf("cutFirst: connection to the leader reset: %w", syscall.ECONNRESET)
}

// TestFleetChaosProxyStreamClientCutBeforeLeaderFails: the client's cut
// happens first, the leader's request fails mid-body after it, and the
// relay has not read the cut yet. The body's verdict decides: a body the
// client cut promotes nothing.
func TestFleetChaosProxyStreamClientCutBeforeLeaderFails(t *testing.T) {
	dp := startDiskPair(t, nil)
	leader := dp.group.Leader()
	step := cutFirst{taken: make(chan struct{}), cut: make(chan struct{})}
	dp.proxy.HTTP = &http.Client{Transport: step}
	content, d := randomBlob(1, 2<<20)

	conn, err := net.Dial("tcp", strings.TrimPrefix(dp.front.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v2/app/blobs/uploads/?digest=%s HTTP/1.1\r\nHost: proxy\r\nContent-Length: %d\r\n\r\n", d, len(content))
	if _, err := conn.Write(content[:128<<10]); err != nil {
		t.Fatal(err)
	}
	<-step.taken
	_ = conn.(*net.TCPConn).SetLinger(0) // Close resets the connection
	conn.Close()
	close(step.cut)

	dp.settle()
	if got := dp.group.Leader(); got != leader {
		t.Errorf("a client's cut body moved the leader from %s to %s", leader, got)
	}
	for i, srv := range dp.srvs {
		if srv.Blobs().Has(d) {
			t.Errorf("replica %d stored a blob whose body was cut", i)
		}
	}
	dp.checkNoTemps(t)
}

// TestFleetChaosProxyStreamFailover: how far a relayed body got decides
// the failover. A leader that fails before it takes a byte is promoted
// past and the follower gets the same stream, so the client's one
// request is acknowledged; one that fails after is promoted past too,
// and the client gets a 503, its cue to send the blob again.
func TestFleetChaosProxyStreamFailover(t *testing.T) {
	for _, tc := range []struct {
		fault faultinject.Kind
		want  int
	}{
		{faultinject.HTTP500, http.StatusCreated},
		{faultinject.Drop, http.StatusCreated},
		{faultinject.Cut, http.StatusServiceUnavailable},
	} {
		t.Run(string(tc.fault), func(t *testing.T) {
			dp := startDiskPair(t, nil)
			plan := faultinject.NewPlan(1).At(1, tc.fault)
			dp.proxy.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}
			content, d := randomBlob(1, 1<<20)
			resp, err := http.Post(dp.front.URL+"/v2/app/blobs/uploads/?digest="+string(d), "application/octet-stream", bytes.NewReader(content))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("push with the leader's request failing (%s): %s, want %d", tc.fault, resp.Status, tc.want)
			}
			if got := dp.group.Leader(); got != dp.ts[1].URL {
				t.Errorf("leader %s after the fault, want the follower %s promoted once", got, dp.ts[1].URL)
			}
			dp.settle()
			for i, srv := range dp.srvs {
				if srv.Blobs().Has(d) != (tc.want == http.StatusCreated) {
					t.Errorf("replica %d holds the blob: %v, want %v", i, srv.Blobs().Has(d), tc.want == http.StatusCreated)
				}
			}
			dp.checkNoTemps(t)
		})
	}
}

// TestFleetChaosProxySessionFailover: a session's spool, unlike a
// request body, can be read again. When the proxy → leader hop is cut
// partway into the spool, the proxy promotes the follower and sends it
// the spool from byte 0, so the finalizing PUT is acknowledged in one
// request, and the follower, now leader, replicates the blob back.
func TestFleetChaosProxySessionFailover(t *testing.T) {
	dp := startDiskPair(t, nil)
	plan := faultinject.NewPlan(1).At(1, faultinject.Cut)
	dp.proxy.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, plan)}
	content, d := randomBlob(1, 1<<20)
	if resp := pushSession(t, dp.front.URL, content, 4, d); resp.StatusCode != http.StatusCreated {
		t.Errorf("finalize with the leader's request cut: %s, want 201", resp.Status)
	}
	if events := plan.Events(); len(events) != 1 || events[0].Kind != faultinject.Cut {
		t.Errorf("injected %v, want the one cut", events)
	}
	if got := dp.group.Leader(); got != dp.ts[1].URL {
		t.Errorf("leader %s after the cut, want the follower %s promoted once", got, dp.ts[1].URL)
	}
	dp.settle()
	for i, srv := range dp.srvs {
		if back, err := distrib.ReadBlob(srv.Blobs(), d); err != nil || !bytes.Equal(back, content) {
			t.Errorf("replica %d's copy of the blob: %v, byte-identical %v", i, err, bytes.Equal(back, content))
		}
	}
	dp.checkNoTemps(t)
}
