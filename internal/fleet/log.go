package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"comtainer/internal/digest"
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
	f       *os.File
	entries []LogEntry
	seq     int64
}

// NewWriteLog opens (or creates) the log at path, replaying existing
// entries; an empty path keeps the log in memory only.
func NewWriteLog(path string) (*WriteLog, error) {
	l := &WriteLog{}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening write log: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e LogEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// A torn final line from a crash mid-append: everything
			// before it is intact, and the entry it would have become
			// was never acknowledged. Stop replaying here.
			break
		}
		l.entries = append(l.entries, e)
		l.seq = e.Seq
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: replaying write log: %w", err)
	}
	l.f = f
	return l, nil
}

// Append assigns the next sequence number to e and records it,
// syncing to disk when file-backed: the entry is durable before the
// caller acknowledges the write it describes.
//
// entry must reach the file in sequence order
//
//comtainer:allow lockio -- the log mutex is the append serializer; an
func (l *WriteLog) Append(e LogEntry) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if l.f != nil {
		b, err := json.Marshal(e)
		if err != nil {
			return 0, fmt.Errorf("fleet: encoding log entry: %w", err)
		}
		if _, err := l.f.Write(append(b, '\n')); err != nil {
			return 0, fmt.Errorf("fleet: appending write log: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("fleet: syncing write log: %w", err)
		}
	}
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
