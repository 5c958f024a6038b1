package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// randomDigests returns n seeded content digests.
func randomDigests(seed int64, n int) []digest.Digest {
	rng := rand.New(rand.NewSource(seed))
	out := make([]digest.Digest, n)
	buf := make([]byte, 64)
	for i := range out {
		rng.Read(buf)
		out[i] = digest.FromBytes(buf)
	}
	return out
}

func TestRingOwnershipDeterministic(t *testing.T) {
	a, err := NewRing([]string{"s1", "s2", "s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same membership, different listing order: identical routing.
	b, err := NewRing([]string{"s3", "s1", "s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range randomDigests(1, 500) {
		if a.Owner(d) != b.Owner(d) {
			t.Fatalf("owner of %s depends on membership listing order", d.Short())
		}
		if a.Owner(d) != a.Owner(d) {
			t.Fatalf("owner of %s not deterministic", d.Short())
		}
	}
}

func TestRingBalance(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	r, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 9000
	for _, d := range randomDigests(2, n) {
		counts[r.Owner(d)]++
	}
	for _, s := range shards {
		share := float64(counts[s]) / n
		// 64 vnodes keeps shares within a loose band of even (1/3).
		if share < 0.15 || share > 0.55 {
			t.Fatalf("shard %s owns %.1f%% of keys; counts %v", s, 100*share, counts)
		}
	}
}

// TestRingMembershipMove checks the consistent-hashing contract:
// adding one shard moves only the keys that the new shard now owns —
// every other key keeps its owner.
func TestRingMembershipMove(t *testing.T) {
	old, err := NewRing([]string{"s1", "s2", "s3", "s4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing([]string{"s1", "s2", "s3", "s4", "s5"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	moved := 0
	for _, d := range randomDigests(4, n) {
		was, now := old.Owner(d), grown.Owner(d)
		if was == now {
			continue
		}
		moved++
		if now != "s5" {
			t.Fatalf("key %s moved %s -> %s; only moves onto the new shard are allowed", d.Short(), was, now)
		}
	}
	frac := float64(moved) / n
	if frac < 0.05 || frac > 0.40 {
		t.Fatalf("adding 1 of 5 shards moved %.1f%% of keys, want roughly 20%%", 100*frac)
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	for _, shards := range [][]string{nil, {}, {""}, {"a", "a"}} {
		if _, err := NewRing(shards, 0); err == nil {
			t.Fatalf("NewRing(%q) succeeded, want error", shards)
		}
	}
}

// Replicas are registry base URLs. The CLI splits -shard on commas, so
// a stray comma is an empty replica, which a leader miss would promote.
func TestShardGroupRejectsBadReplicas(t *testing.T) {
	for _, tc := range []struct {
		replica string
		ok      bool
	}{
		{"http://a:5001", true},
		{"https://registry.example", true},
		{"", false},
		{" ", false},
		{"a:5001", false},
		{"//a:5001", false},
		{"ftp://a:5001", false},
		{"http://", false},
		{"http:///v2", false},
		{"http://a b", false},
	} {
		_, err := NewShardGroup("s", "http://leader:5001", tc.replica)
		if (err == nil) != tc.ok {
			t.Errorf("NewShardGroup(…, %q) error = %v, want ok = %v", tc.replica, err, tc.ok)
		}
	}
}

// Three replica base URLs; the messages below call them r1, r2, r3.
const r1, r2, r3 = "http://r1", "http://r2", "http://r3"

func TestShardGroupPromotion(t *testing.T) {
	g, err := NewShardGroup("s", r1, r2, r3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Leader() != r1 {
		t.Fatalf("initial leader %s, want r1", g.Leader())
	}
	if got := g.promoteFrom(r1); got != r2 {
		t.Fatalf("promoteFrom(r1) = %s, want r2", got)
	}
	// A second failure report against the already-replaced leader must
	// not leapfrog the healthy new one.
	if got := g.promoteFrom(r1); got != r2 {
		t.Fatalf("stale promoteFrom(r1) moved leadership to %s", got)
	}
	if got := g.promoteFrom(r2); got != r3 {
		t.Fatalf("promoteFrom(r2) = %s, want r3", got)
	}
	if got := g.promoteFrom(r3); got != r1 {
		t.Fatalf("promoteFrom(r3) wrapped to %s, want r1", got)
	}
}

func TestShardGroupHeartbeatCounters(t *testing.T) {
	g, err := NewShardGroup("s", r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.noteMiss(r1); n != 1 {
		t.Fatalf("first miss count %d, want 1", n)
	}
	g.noteBeat(r1)
	if n := g.noteMiss(r1); n != 1 {
		t.Fatalf("miss count after beat %d, want 1 (reset)", n)
	}
	// Misses against a no-longer-leader don't count.
	g.promoteFrom(r1)
	if n := g.noteMiss(r1); n != 0 {
		t.Fatalf("stale miss counted: %d", n)
	}
}

func TestWriteLogPersistsAndReplays(t *testing.T) {
	path := t.TempDir() + "/replication.log"
	l, err := NewWriteLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []LogEntry
	for i := 0; i < 5; i++ {
		e := LogEntry{Kind: KindBlob, Digest: digest.FromBytes([]byte(fmt.Sprintf("blob-%d", i)))}
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		e.Seq = int64(i + 1)
		want = append(want, e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := ReadLog(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	re, err := NewWriteLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Appends continue the sequence after replay.
	seq, err := re.Append(LogEntry{Kind: KindBlob, Digest: digest.FromBytes([]byte("later"))})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("post-replay Append assigned seq %d, want 6", seq)
	}
}

func TestWriteLogToleratesTornTail(t *testing.T) {
	path := t.TempDir() + "/replication.log"
	l, err := NewWriteLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(LogEntry{Kind: KindBlob, Digest: digest.FromBytes([]byte("ok"))}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, non-JSON final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"kind":"bl`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := NewWriteLog(path)
	if err != nil {
		t.Fatalf("reopening torn log: %v", err)
	}
	defer re.Close()
	if got := ReadLog(t, path); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("torn log replayed %+v, want just seq 1", got)
	}
	if seq, err := re.Append(LogEntry{Kind: KindBlob, Digest: digest.FromString("next")}); err != nil || seq != 2 {
		t.Fatalf("append after a torn tail got seq %d (err %v), want 2", seq, err)
	}
}

// TestWriteLogAppendAfterTornTail: an entry acknowledged after a torn
// tail must be replayed by every later open. The log's next write lands
// at the end of its valid prefix — over the torn bytes, not behind them,
// where the two would fuse into one unparsable line that hides every
// entry appended since.
func TestWriteLogAppendAfterTornTail(t *testing.T) {
	entry := func(s string) LogEntry { return LogEntry{Kind: KindBlob, Digest: digest.FromString(s)} }
	seqs := func(path string) (out []int64) {
		for _, e := range ReadLog(t, path) {
			out = append(out, e.Seq)
		}
		return out
	}
	reopen := func(path string) *WriteLog {
		t.Helper()
		l, err := NewWriteLog(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}

	t.Run("half a line on disk", func(t *testing.T) {
		path := t.TempDir() + "/replication.log"
		if _, err := reopen(path).Append(entry("one")); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"seq":2,"kind":"bl`)
		f.Close()
		if seq, err := reopen(path).Append(entry("two")); err != nil || seq != 2 {
			t.Fatalf("Append after the torn tail = seq %d, %v", seq, err)
		}
		if got := seqs(path); fmt.Sprint(got) != "[1 2]" {
			t.Fatalf("replay after an append behind a torn tail = %v, want [1 2]", got)
		}
		if seq, err := reopen(path).Append(entry("three")); err != nil || seq != 3 {
			t.Fatalf("next Append = seq %d, %v", seq, err)
		}
	})

	t.Run("a line past the bound fails the open", func(t *testing.T) {
		path := t.TempDir() + "/replication.log"
		if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 1<<20+1), 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := NewWriteLog(path); err == nil {
			l.Close()
			t.Fatal("a log holding one line of more than 1 MiB opened")
		}
	})

	t.Run("short write through the seam", func(t *testing.T) {
		path := t.TempDir() + "/replication.log"
		// Operation 1 opens the log, 2-3 write and sync the first entry
		// and 4-5 open and sync its directory, 6 is the second entry's
		// write: torn.
		plan := faultinject.NewPlan(7).At(6, faultinject.ShortWrite)
		l, err := NewWriteLogFS(path, faultinject.NewFS(faultinject.OS(), plan))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append(entry("one")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(entry("torn")); err == nil {
			t.Fatal("short write acknowledged")
		}
		if raw, _ := os.ReadFile(path); len(plan.Events()) != 1 || bytes.HasSuffix(raw, []byte("\n")) {
			t.Fatalf("no torn tail on disk: events %v, file %q", plan.Events(), raw)
		}
		// The same process goes on: the failed entry's number is reused
		// and its bytes are overwritten.
		if seq, err := l.Append(entry("two")); err != nil || seq != 2 {
			t.Fatalf("Append after the short write = seq %d, %v", seq, err)
		}
		if got := seqs(path); fmt.Sprint(got) != "[1 2]" {
			t.Fatalf("replay = %v, want [1 2]", got)
		}
	})
}
