package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// FuzzWriteLogReplay: a shard leader replays its replication.log at every
// open, after whatever a crash, a full disk or an operator left in it.
// Whatever the file holds, the open never panics. When it succeeds, one
// Append and a reopen replay exactly the entries the first open found
// plus the new one: a torn or garbage tail is overwritten, and nothing in
// or past it comes back.
//
// The input is the file. Named seeds under testdata/fuzz: a valid
// two-entry log, a line cut mid-JSON, a valid line after a garbage one,
// a line longer than the 1 MiB replay buffer, which fails the open, and
// what the first run found: one flipped byte in the first entry, which
// an append of the same length overwrote exactly, so the second entry
// came back until the open started cutting the tail off.
func FuzzWriteLogReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "replication.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := NewWriteLogFS(path, faultinject.OS())
		if err != nil {
			return // refused, as a line past the replay buffer is
		}
		e := LogEntry{Kind: KindBlob, Digest: digest.FromBytes(data)}
		want := slices.Clone(l.entries)
		if e.Seq, err = l.Append(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		again, err := NewWriteLogFS(path, faultinject.OS())
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		defer again.Close()
		if got := again.entries; !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened log replays %d entries %+v, want the %d the first open found plus the appended one: %+v", len(got), got, len(want), want)
		}
	})
}
