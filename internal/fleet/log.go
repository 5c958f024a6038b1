package fleet

import (
	"encoding/json"
	"fmt"
	"sync"

	"comtainer/internal/digest"
	"comtainer/internal/faultinject"
)

// KindBlob is the kind of every write-log entry.
const KindBlob = "blob"

// LogEntry is one replicated blob in commit order.
type LogEntry struct {
	Seq    int64         `json:"seq"`
	Kind   string        `json:"kind"`
	Digest digest.Digest `json:"digest"`
}

// WriteLog is a shard leader's append-only journal of the blobs it
// acknowledged, each recorded (durably, when file-backed) before its
// ack. Tags are not in it: each replica's distrib.DiskTags logs its own.
type WriteLog struct {
	mu  sync.Mutex
	f   *faultinject.AppendFile // nil: in memory only
	seq int64                   // the last entry's
}

// NewWriteLog opens (or creates) the log at path, replaying it for the
// last sequence number; an empty path keeps the log in memory only.
func NewWriteLog(path string) (*WriteLog, error) {
	return NewWriteLogFS(path, faultinject.OS())
}

// NewWriteLogFS is NewWriteLog through fsys: tests tear an append with it.
func NewWriteLogFS(path string, fsys faultinject.FS) (*WriteLog, error) {
	if path == "" {
		return &WriteLog{}, nil
	}
	var seq int64
	f, err := faultinject.OpenAppend(fsys, path, func(line []byte) error {
		var e struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		seq = e.Seq
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: opening write log: %w", err)
	}
	return &WriteLog{f: f, seq: seq}, nil
}

// Append assigns the next sequence number to e and records it: synced,
// when file-backed, before the write it describes is acknowledged.
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
	return e.Seq, nil
}

// Close releases the backing file, if any; appends fail afterwards.
func (l *WriteLog) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
