package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// Write-log entry kinds.
const (
	KindBlob     = "blob"
	KindManifest = "manifest"
)

// LogEntry is one replicated write in commit order. Blob entries
// carry the digest; manifest entries additionally carry the reference
// they were pushed under and the media type, so a replay can re-issue
// the exact manifest PUT (the body is recovered from the blob store
// by digest).
type LogEntry struct {
	Seq       int64         `json:"seq"`
	Kind      string        `json:"kind"`
	Digest    digest.Digest `json:"digest"`
	Name      string        `json:"name,omitempty"`
	Ref       string        `json:"ref,omitempty"`
	MediaType string        `json:"mediaType,omitempty"`
}

// WriteLog is a shard's append-only replication log: every commit the
// leader acknowledges is recorded here (durably, when file-backed)
// before the followers are written, giving the shard a total order of
// acknowledged writes and the material to catch a rejoining follower
// up (Replicator.Sync replays it).
type WriteLog struct {
	mu      sync.Mutex
	f       *faultinject.AppendFile // nil: in memory only
	entries []LogEntry
	seq     int64
}

// NewWriteLog opens (or creates) the log at path, replaying existing
// entries; an empty path keeps the log in memory only.
func NewWriteLog(path string) (*WriteLog, error) {
	return NewWriteLogFS(path, faultinject.OS())
}

// NewWriteLogFS is NewWriteLog through fsys: tests tear an append with it.
func NewWriteLogFS(path string, fsys faultinject.FS) (*WriteLog, error) {
	l := &WriteLog{}
	if path == "" {
		return l, nil
	}
	f, err := faultinject.OpenAppend(fsys, path, l.replay)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening write log: %w", err)
	}
	l.f = f
	return l, nil
}

// replay loads the entries r holds and returns the length of the
// prefix they occupy. A line that is cut short or does not parse is a
// torn append from a crash: everything before it is intact, its entry
// was never acknowledged, and the next Append overwrites it.
func (l *WriteLog) replay(r io.Reader) (valid int64, _ error) {
	br := bufio.NewReaderSize(r, 1<<20) // a longer line fails the replay, with bufio.ErrBufferFull
	for {
		line, err := br.ReadSlice('\n')
		if err != nil && err != io.EOF {
			return 0, fmt.Errorf("replaying: %w", err)
		}
		var e LogEntry
		if err == io.EOF || json.Unmarshal(line, &e) != nil {
			return valid, nil
		}
		l.entries = append(l.entries, e)
		l.seq = e.Seq
		valid += int64(len(line))
	}
}

// Append assigns the next sequence number to e and records it,
// syncing to disk when file-backed: the entry is durable before the
// caller acknowledges the write it describes.
func (l *WriteLog) Append(e LogEntry) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.seq + 1
	if l.f != nil {
		b, err := json.Marshal(e)
		if err != nil {
			return 0, fmt.Errorf("fleet: encoding log entry: %w", err)
		}
		if _, err := l.f.Append(append(b, '\n')); err != nil {
			return 0, fmt.Errorf("fleet: appending write log: %w", err)
		}
	}
	l.seq = e.Seq
	l.entries = append(l.entries, e)
	return e.Seq, nil
}

// Entries returns the log entries with sequence numbers > since, in
// order.
func (l *WriteLog) Entries(since int64) []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []LogEntry
	for _, e := range l.entries {
		if e.Seq > since {
			out = append(out, e)
		}
	}
	return out
}

// Close releases the backing file, if any. The handle is detached
// under the lock and closed outside it, so a slow close never blocks
// concurrent Entries readers.
func (l *WriteLog) Close() error {
	l.mu.Lock()
	f := l.f
	l.f = nil
	l.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Close()
}
